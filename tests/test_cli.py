import hashlib
import json
from dataclasses import MISSING, asdict, fields

import numpy as np
import pytest

from emocluster import cli, parallel
from emocluster.cli import build_parser, main, pca_project_2d
from emocluster.trainer import MODES

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    code = main(
        [
            "gen-synth", "--n-speakers", "4", "--n-emotions", "4", "--utts-per-cell", "8",
            "--dim", "8", "--within-noise", "0.25", "--seed", "5", "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_gen_synth_writes_manifest(small_corpus):
    manifest = json.loads((small_corpus.parent / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-synth"
    assert manifest["outputs"] == [str(small_corpus)]
    assert manifest["tool_version"]
    assert manifest["workers"] == parallel.worker_count()
    assert manifest["config"]["n_speakers"] == 4
    # the seed and the command are stored once each
    assert "seed" not in manifest and "command" not in manifest["config"] and manifest["config"]["seed"] == 5


def test_cluster_eval_mine_project_pipeline(tmp_path, small_corpus):
    run = tmp_path / "run.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--k", "4", "--seed", "1", "--out", str(run)]) == 0
    report = tmp_path / "report.json"
    table = tmp_path / "report.txt"
    assert (
        main(
            ["eval-clusters", "--corpus", str(small_corpus), "--run", str(run),
             "--out", str(report), "--table", str(table)]
        )
        == 0
    )
    payload = json.loads(report.read_text())
    assert set(payload["averages"]) == {"nmi", "ari", "purity", "silhouette"}
    assert "Silhouette" in table.read_text()

    tuples = tmp_path / "tuples.jsonl"
    assert (
        main(
            ["mine-pairs", "--corpus", str(small_corpus), "--run", str(run),
             "--n-clusters", "4", "--seed", "2", "--out", str(tuples)]
        )
        == 0
    )
    assert tuples.stat().st_size > 0

    csv = tmp_path / "proj.csv"
    svg = tmp_path / "proj.svg"
    assert (
        main(
            ["project", "--corpus", str(small_corpus), "--run", str(run),
             "--out", str(csv), "--svg", str(svg)]
        )
        == 0
    )
    header = csv.read_text().splitlines()[0]
    assert header == "x,y,spk_id,emotion,cluster"
    assert svg.read_text().startswith("<svg")


def test_cli_commands_rerun_byte_identical(tmp_path, small_corpus):
    outputs = {}
    for round_dir in ("one", "two"):
        base = tmp_path / round_dir
        base.mkdir()
        run = base / "run.json"
        assert main(["cluster", "--corpus", str(small_corpus), "--k", "4", "--seed", "3", "--out", str(run)]) == 0
        report = base / "rep.json"
        assert main(["eval-clusters", "--corpus", str(small_corpus), "--run", str(run), "--out", str(report)]) == 0
        tuples = base / "t.jsonl"
        assert main(["mine-pairs", "--corpus", str(small_corpus), "--run", str(run), "--n-clusters", "4", "--seed", "9", "--out", str(tuples)]) == 0
        csv = base / "p.csv"
        assert main(["project", "--corpus", str(small_corpus), "--out", str(csv)]) == 0
        outputs[round_dir] = [sha(run), sha(report), sha(tuples), sha(csv)]
        for path in (run, report, tuples, *base.glob("*.manifest.json")):
            _assert_canonical(path)
    assert outputs["one"] == outputs["two"]


def _assert_canonical(path):
    """Each line of the JSON file at `path` re-encodes to its own bytes, and the file ends in a newline."""
    from emocluster.serialize import canonical_dumps

    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n"), f"{path}: no final newline"
    for lineno, line in enumerate(text[:-1].split("\n"), start=1):
        assert canonical_dumps(json.loads(line)) == line, f"{path}:{lineno}: not canonical"


def _seventeen_digit_dumps(obj) -> str:
    """A canonical JSON line in the format written before floats were written as their repr:
    each float with 17 significant digits, an integral one below 1e17 with its .0 kept."""
    if isinstance(obj, float):
        return f"{obj:.1f}" if obj.is_integer() and abs(obj) < 1e17 else format(obj, ".17g")
    if isinstance(obj, dict):
        items = (f"{json.dumps(k, ensure_ascii=False)}:{_seventeen_digit_dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(map(_seventeen_digit_dumps, obj)) + "]"
    return json.dumps(obj, ensure_ascii=False)


def test_files_in_the_seventeen_digit_format_give_the_same_outputs(tmp_path, small_corpus):
    # a corpus and a run written in the older float format load to the same values, so every command
    # that reads them writes the bytes it writes from the same files in the current format
    from emocluster.serialize import canonical_dumps

    records = [json.loads(line) for line in small_corpus.read_text().splitlines()]
    records[0]["vec"][:3] = [1.0, 0.0, -2.0]  # integral values, which the older format wrote with a .0
    new, old = tmp_path / "new", tmp_path / "old"
    for base, dumps in ((new, canonical_dumps), (old, _seventeen_digit_dumps)):
        base.mkdir()
        (base / "corpus.jsonl").write_text("".join(dumps(r) + "\n" for r in records), encoding="utf-8")
    assert (new / "corpus.jsonl").read_bytes() != (old / "corpus.jsonl").read_bytes()
    for base in (new, old):
        assert main(["cluster", "--corpus", str(base / "corpus.jsonl"), "--k", "3", "--seed", "4",
                     "--out", str(base / "run.json")]) == 0
    assert (new / "run.json").read_bytes() == (old / "run.json").read_bytes()
    run = json.loads((old / "run.json").read_text())
    (old / "run.json").write_text(_seventeen_digit_dumps(run) + "\n", encoding="utf-8")
    assert (new / "run.json").read_bytes() != (old / "run.json").read_bytes()
    for base in (new, old):
        at = lambda name: str(base / name)
        inputs = ["--corpus", at("corpus.jsonl"), "--run", at("run.json")]
        assert main(["eval-clusters", *inputs, "--out", at("report.json"), "--table", at("table.txt")]) == 0
        assert main(["mine-pairs", *inputs, "--n-clusters", "3", "--seed", "6", "--out", at("tuples.jsonl")]) == 0
        assert main(["project", *inputs, "--out", at("scatter.csv"), "--svg", at("scatter.svg")]) == 0
    for name in ("report.json", "table.txt", "tuples.jsonl", "scatter.csv", "scatter.svg"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_pretrain_and_checkpoint(tmp_path, small_corpus):
    ckpt = tmp_path / "ckpt.json"
    code = main(
        ["pretrain", "--corpus", str(small_corpus), "--mode", "mtl", "--steps", "40",
         "--n-clusters", "4", "--trunk-hidden", "8", "--contrastive-out", "8",
         "--seed", "4", "--out", str(ckpt)]
    )
    assert code == 0
    from emocluster.nn_core import load_checkpoint

    components, meta = load_checkpoint(str(ckpt))
    assert {"encoder", "contrastive", "speaker_cls"} <= set(components)
    assert set(meta) == {"mode", "final_losses", "config"} and meta["mode"] == "mtl"
    # only the fields pretraining reads; SER-only settings would mislead
    assert meta["config"]["steps"] == 40 and meta["config"]["n_clusters_N"] == 4
    assert "pretrain_lr" in meta["config"]
    assert not {"lr", "epochs_ser", "seeds", "patience", "split_fractions", "pretrain_speaker_fraction"} & set(
        meta["config"]
    )


@pytest.mark.parametrize("mode", ["spk_cls", "contrastive", "mtl_adversarial", "mtl"])
def test_resaved_checkpoint_is_byte_identical(tmp_path, small_corpus, mode):
    from emocluster.nn_core import load_checkpoint, save_checkpoint

    ckpt = tmp_path / "ckpt.json"
    code = main(
        ["pretrain", "--corpus", str(small_corpus), "--mode", mode, "--steps", "10", "--n-clusters", "4",
         "--trunk-hidden", "8", "--contrastive-out", "8", "--out", str(ckpt)]
    )
    assert code == 0
    again = tmp_path / "again.json"
    save_checkpoint(str(again), *load_checkpoint(str(ckpt)))
    assert again.read_bytes() == ckpt.read_bytes()
    assert (tmp_path / "again.json.bin").read_bytes() == (tmp_path / "ckpt.json.bin").read_bytes()


def test_probe_command_small(tmp_path, small_corpus):
    out = tmp_path / "probe.json"
    table = tmp_path / "probe.txt"
    code = main(
        ["probe", "--corpus", str(small_corpus), "--modes", "none,contrastive",
         "--steps", "30", "--epochs", "3", "--seeds", "0,1", "--label-fraction", "0.5",
         "--n-clusters", "4", "--trunk-hidden", "8", "--contrastive-out", "8",
         "--lr", "1e-3", "--seed", "1", "--out", str(out), "--table", str(table)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [row["mode"] for row in payload["rows"]] == ["none", "contrastive"]
    assert "mean UAR" in table.read_text()


def test_grad_check_exit_codes(tmp_path):
    out = tmp_path / "gc.json"
    assert main(["grad-check", "--head", "all", "--tol", "1e-5", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_relative_error"] <= 1e-5
    # impossible tolerance -> numerical failure exit code
    assert main(["grad-check", "--head", "speaker_cls", "--tol", "1e-18", "--seed", "0"]) == 3


@pytest.mark.parametrize(
    "seed, digest",
    [
        (0, "d0e7310e3c0df5223d4b1731df9af93e711b28e7e7c9ef5ca6766e2362532da4"),
        (1, "956789333f038bb3ba5386e60cadd0ce2dec9404750901964ee400c67d818063"),
    ],
)
def test_grad_check_payload_is_pinned(tmp_path, seed, digest):
    # the sampled configuration of every kind, and each case's error, pinned to the bit
    out = tmp_path / "gc.json"
    assert main(["grad-check", "--head", "all", "--tol", "1e-5", "--seed", str(seed), "--out", str(out)]) == 0
    assert sha(out) == digest


def test_grad_check_without_conditioned_configuration_exits_3(tmp_path, capsys):
    # at tau 1e6 the contrastive gradients are too small for central differences in every attempt
    out = tmp_path / "gc.json"
    assert main(["grad-check", "--head", "contrastive", "--tau", "1e6", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("emocluster: numerical failure: ") and "'contrastive'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["grad-check", "--head", "speaker_cls", "--eps", "0"], "grad-check eps must be > 0"),
        (["grad-check", "--head", "speaker_cls", "--eps", "inf"], "grad-check eps must be > 0 and finite"),
        (["grad-check", "--head", "mtl", "--grl-lambda", "-1"], "must be >= 0"),
        (["grad-check", "--head", "contrastive", "--grl-lambda", "-1"], "grl_lambda must be >= 0"),
        (["grad-check", "--head", "contrastive", "--tau", "nan"], "tau must be > 0 and finite"),
        (["grad-check", "--head", "contrastive", "--tau", "inf"], "tau must be > 0 and finite"),
    ],
    ids=["eps-zero", "eps-inf", "grl-lambda-negative", "grl-lambda-negative-contrastive", "tau-nan", "tau-inf"],
)
def test_grad_check_invalid_setting_exits_2(capsys, argv, detail):
    assert main(argv) == 2
    assert detail in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["grad-check", "--head", "speaker_cls", "--eps", "1e308"],
        ["grad-check", "--head", "speaker_cls", "--eps", "1e308", "--tol", "inf"],
        ["grad-check", "--tol", "nan"],
    ],
    ids=["eps-overflow", "eps-overflow-tol-inf", "tol-nan"],
)
def test_grad_check_nonfinite_error_or_tolerance_fails(tmp_path, capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "grad-check FAILED" in err and "RuntimeWarning" not in err
    # with --out the payload is still written, each non-finite number as null
    out = tmp_path / "gc.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert "grad-check FAILED" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    if "--eps" in argv:
        assert payload["max_relative_error"] is None and set(payload["cases"].values()) == {None}
    else:
        assert payload["tolerance"] is None and payload["max_relative_error"] is not None


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("gen-synth", "--within-noise", "nan", "within_noise"),
        ("gen-synth", "--speaker-spread", "nan", "speaker_spread"),
        ("gen-synth", "--emotion-offset", "inf", "emotion_offset_norm"),
        ("gen-synth", "--seed", "-1", "seed"),
        ("cluster", "--tol", "nan", "tol"),
        ("pretrain", "--tau", "nan", "tau"),
        ("pretrain", "--pre-lr", "nan", "pretrain_lr"),
        ("pretrain", "--grl-lambda", "nan", "grl_lambda"),
        ("pretrain", "--mtl-w-spk", "nan", "w_speaker"),
        ("probe", "--lr", "nan", "lr"),
        ("pretrain", "--trunk-hidden", "0", "trunk_hidden"),
        ("pretrain", "--contrastive-out", "0", "contrastive_out"),
        ("probe", "--trunk-hidden", "-1", "trunk_hidden"),
    ],
)
def test_nonfinite_setting_exits_2_naming_its_field(tmp_path, small_corpus, capsys, command, flag, value, field):
    out = tmp_path / "out.json"
    corpus = [] if command == "gen-synth" else ["--corpus", str(small_corpus)]
    assert main([command, *corpus, flag, value, "--out", str(out)]) == 2
    assert f"emocluster: error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "modes, detail", [(",", "no modes given"), ("none,none", "mode 'none' given twice")], ids=["empty", "repeated"]
)
def test_probe_without_distinct_modes_exits_2(tmp_path, small_corpus, capsys, modes, detail):
    out = tmp_path / "probe.json"
    assert main(["probe", "--corpus", str(small_corpus), "--modes", modes, "--out", str(out)]) == 2
    assert detail in capsys.readouterr().err
    assert not out.exists()


_CORPUS_FLAGS = {"--corpus", "--format", "--out", "--config"}
_TRAIN_FLAGS = {
    "--steps", "--batch-size", "--pre-lr", "--tau", "--n-clusters", "--mtl-w-spk", "--grl-lambda",
    "--include-positive-denominator", "--trunk-hidden", "--contrastive-out",
}
# (option strings, required ones) of every subcommand
_SUBCOMMAND_FLAGS = {
    "gen-synth": (
        {"--n-speakers", "--n-emotions", "--utts-per-cell", "--dim", "--speaker-spread", "--emotion-offset",
         "--within-noise", "--emotion-dir-jitter", "--format", "--seed", "--out", "--config"},
        {"--out"},
    ),
    "cluster": (_CORPUS_FLAGS | {"--k", "--max-iters", "--tol", "--restarts", "--seed"}, {"--corpus", "--out"}),
    "eval-clusters": (_CORPUS_FLAGS | {"--run", "--table"}, {"--corpus", "--run", "--out"}),
    "mine-pairs": (
        _CORPUS_FLAGS | {"--run", "--n-clusters", "--exact-negatives", "--seed"}, {"--corpus", "--run", "--out"}
    ),
    "pretrain": (_CORPUS_FLAGS | _TRAIN_FLAGS | {"--mode", "--seed"}, {"--corpus", "--out"}),
    "probe": (
        _CORPUS_FLAGS | _TRAIN_FLAGS | {"--modes", "--label-fraction", "--lr", "--epochs", "--seeds", "--table", "--seed"},
        {"--corpus", "--out"},
    ),
    "grad-check": ({"--head", "--tol", "--eps", "--tau", "--grl-lambda", "--seed", "--out", "--config"}, set()),
    "project": (_CORPUS_FLAGS | {"--run", "--svg"}, {"--corpus", "--out"}),
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_FLAGS))
def test_subcommand_flags_and_help(capsys, command):
    sp = build_parser().get_default("_subcommands")[command]
    options = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
    required = {o for a in sp._actions if a.required for o in a.option_strings}
    assert (options, required) == _SUBCOMMAND_FLAGS[command]
    assert main([command, "-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: emocluster {command} ")


def test_usage_error_exit_code():
    assert main(["cluster"]) == 1  # missing required flags
    assert main(["definitely-not-a-command"]) == 1


def test_data_error_exit_code(tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert main(["cluster", "--corpus", str(missing), "--k", "2", "--out", str(tmp_path / "r.json")]) == 2


def test_config_file_supplies_defaults(tmp_path, small_corpus):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"k": 3, "seed": 8}))
    run = tmp_path / "run.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--config", str(config), "--out", str(run)]) == 0
    payload = json.loads(run.read_text())
    assert payload["config"]["k"] == 3
    assert payload["config"]["seed"] == 8
    # explicit flag wins over the config file
    run2 = tmp_path / "run2.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--config", str(config), "--k", "2", "--out", str(run2)]) == 0
    assert json.loads(run2.read_text())["config"]["k"] == 2


def test_config_file_supplies_required_flag(tmp_path, small_corpus, capsys):
    config = tmp_path / "conf.json"
    run = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(run)}))
    assert main(["cluster", "--corpus", str(small_corpus), "--k", "2", "--config", str(config)]) == 0
    assert json.loads(run.read_text())["config"]["k"] == 2
    assert json.loads((tmp_path / "run.json.manifest.json").read_text())["outputs"] == [str(run)]
    # named neither in argv nor in a config file, a required flag is still a usage error
    assert main(["cluster", "--corpus", str(small_corpus)]) == 1
    assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, values, detail",
    [
        (["cluster"], {"k": 2.5}, "config key 'k': invalid value 2.5"),
        (["cluster"], {"exact_negatives": "no"}, "config key 'exact_negatives': takes true or false, not \"no\""),
        (["cluster"], {"format": "xml"}, "config key 'format': 'xml' is not one of jsonl, bin"),
        (["probe", "--modes", "none", "--epochs", "1"], {"seeds": 3}, None),
    ],
    ids=["int-flag-float", "switch-string", "choice-flag-unknown", "list-flag-number"],
)
def test_config_file_values_parse_as_their_flags(tmp_path, small_corpus, capsys, command, values, detail):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(values))
    out = tmp_path / "out.json"
    code = main([*command, "--corpus", str(small_corpus), "--config", str(config), "--out", str(out)])
    if detail is None:
        assert code == 0
        manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
        assert manifest["config"]["seeds"] == [3]
        assert [p["seed"] for p in json.loads(out.read_text())["rows"][0]["per_seed"]] == [3]
    else:
        assert code == 2
        assert f"{config}: {detail}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "values, inline, detail",
    [
        ({"k": 2}, True, None),
        ({"k": 2, "steps": 5}, False, None),
        ({"kk": 2}, False, "config key 'kk' names no flag"),
        ({"help": True}, False, "config key 'help' names no flag"),
        ({"config": "nonexistent.json"}, False, "config key 'config' names no flag"),
        ({"n-clusters": 2, "n_clusters": 3}, False, "config keys 'n-clusters' and 'n_clusters' name one flag"),
    ],
    ids=["equals-form", "other-subcommand-key", "unknown-key", "help-key", "config-key", "two-spellings"],
)
def test_config_file_read_in_either_form_and_keys_checked(tmp_path, small_corpus, capsys, values, inline, detail):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(values))
    flag = [f"--config={config}"] if inline else ["--config", str(config)]
    run = tmp_path / "run.json"
    code = main(["cluster", "--corpus", str(small_corpus), *flag, "--out", str(run)])
    if detail is None:
        assert code == 0
        assert json.loads(run.read_text())["config"]["k"] == 2
    else:
        assert code == 2
        assert f"{config}: {detail}" in capsys.readouterr().err
        assert not run.exists()


def test_config_file_that_repeats_a_key_exits_2(tmp_path, small_corpus, capsys):
    config = tmp_path / "conf.json"
    config.write_text('{"k": 2, "k": 3}')
    run = tmp_path / "run.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--config", str(config), "--out", str(run)]) == 2
    assert f"{config}: malformed config file (repeated key 'k')" in capsys.readouterr().err
    assert not run.exists()


def test_config_schema_of_artifacts(tmp_path, small_corpus):
    from dataclasses import asdict

    from emocluster.nn_core import load_checkpoint
    from emocluster.serialize import canonical_dumps
    from emocluster.trainer import TrainConfig

    mtl_keys = {"w_speaker", "grl_lambda"}
    pretrain_keys = {
        "mode", "steps", "batch_size", "pretrain_lr", "tau", "n_clusters_N", "mtl_weights",
        "include_positive_in_denominator", "trunk_hidden", "contrastive_hidden", "contrastive_out",
        "head_hidden", "seed",
    }
    train_keys = pretrain_keys | {"lr", "epochs_ser", "seeds", "split_fractions", "pretrain_speaker_fraction"}
    payload = asdict(TrainConfig())
    assert set(payload) == train_keys and set(payload["mtl_weights"]) == mtl_keys
    assert canonical_dumps(payload) == (
        '{"batch_size":8,"contrastive_hidden":null,"contrastive_out":128,"epochs_ser":30,"head_hidden":null,'
        '"include_positive_in_denominator":false,"lr":0.001,"mode":"contrastive",'
        '"mtl_weights":{"grl_lambda":1.0,"w_speaker":1.0},"n_clusters_N":20,'
        '"pretrain_lr":0.0001,"pretrain_speaker_fraction":0.0,"seed":0,"seeds":[0,1,2,3,4],'
        '"split_fractions":[0.7,0.1,0.2],"steps":1000,"tau":0.1,"trunk_hidden":32}'
    )

    probe, ckpt, run = tmp_path / "probe.json", tmp_path / "ckpt.json", tmp_path / "run.json"
    corpus = ["--corpus", str(small_corpus)]
    assert main(["probe", *corpus, "--modes", "none", "--epochs", "1", "--seeds", "0", "--out", str(probe)]) == 0
    assert main(["pretrain", *corpus, "--steps", "1", "--n-clusters", "4", "--out", str(ckpt)]) == 0
    assert main(["cluster", *corpus, "--out", str(run)]) == 0
    probe_config = json.loads(probe.read_text())["config"]
    assert set(probe_config) == train_keys and set(probe_config["mtl_weights"]) == mtl_keys
    ckpt_config = load_checkpoint(str(ckpt))[1]["config"]
    assert set(ckpt_config) == pretrain_keys and set(ckpt_config["mtl_weights"]) == mtl_keys
    assert set(json.loads(run.read_text())["config"]) == {"k", "max_iters", "tol", "n_restarts", "seed"}


class _Built(Exception):
    """Stops a command at the stage its config feeds, carrying that stage's arguments."""


@pytest.mark.parametrize(
    ("command", "stage", "position", "stage_kwargs"),
    [
        ("gen-synth", "generate_synthetic", 0, {}),
        ("cluster", "cluster_speakers", 1, {}),
        ("mine-pairs", "mine_tuples", 2, {}),
        ("pretrain", "pretrain", 1, {}),
        ("probe", "run_protocol", 1, {"modes": list(MODES)}),
        ("grad-check", "grad_check_cases", 1, {}),
    ],
)
def test_flag_defaults_build_the_config_defaults(tmp_path, small_corpus, monkeypatch, command, stage, position,
                                                 stage_kwargs):
    # given only its required flags, a command builds the config its dataclass's own
    # defaults make: no flag keeps a second copy of a default
    run = tmp_path / "run.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--out", str(run)]) == 0
    paths = {"corpus": small_corpus, "run": run, "out": tmp_path / "out"}
    sp = build_parser().get_default("_subcommands")[command]
    argv = [command, *(arg for a in sp._actions if a.required for arg in (a.option_strings[0], str(paths[a.dest])))]

    def built(*args, **kwargs):
        raise _Built(args, kwargs)

    monkeypatch.setattr(cli, stage, built)
    with pytest.raises(_Built) as caught:
        main(argv)
    args, kwargs = caught.value.args
    config = args[position]
    # the fields with no default (the synthetic corpus's sizes) are the CLI's own
    no_default = [f.name for f in fields(config) if f.default is MISSING and f.default_factory is MISSING]
    assert asdict(config) == asdict(type(config)(**{name: getattr(config, name) for name in no_default}))
    assert {k: kwargs[k] for k in stage_kwargs} == stage_kwargs


def test_unwritable_manifest_exits_2_naming_its_path(tmp_path, capsys):
    out = tmp_path / "c2.jsonl"
    manifest = tmp_path / "c2.jsonl.manifest.json"
    manifest.mkdir()
    assert main(["gen-synth", "--n-speakers", "2", "--utts-per-cell", "2", "--dim", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("emocluster: error: ") and str(manifest) in err


def test_project_csv_reads_back_whatever_the_ids_hold(tmp_path):
    # ids holding a comma, a quote, a bare CR or a newline are quoted, so each utterance is one row of 5 fields
    import csv

    labels = [("smith, j", "calm"), ('say "hi"', "x\ny"), ("a\rb", None), ("plain", "happy")]
    rng = np.random.default_rng(0)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(
        json.dumps({"utt_id": f"u{i}", "spk_id": spk, "emotion": emotion, "vec": rng.normal(size=3).tolist()}) + "\n"
        for i, (spk, emotion) in enumerate(labels * 2)
    ))
    run, out = tmp_path / "run.json", tmp_path / "p.csv"
    assert main(["cluster", "--corpus", str(corpus), "--k", "2", "--out", str(run)]) == 0
    assert main(["project", "--corpus", str(corpus), "--run", str(run), "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"x,y,spk_id,emotion,cluster\r\n")
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "spk_id", "emotion", "cluster"]
    assert [len(row) for row in rows[1:]] == [5] * 8
    assert [(row[2], row[3]) for row in rows[1:]] == [(spk, emotion or "") for spk, emotion in labels * 2]
    per_speaker = json.loads(run.read_text())["per_speaker"].values()
    clusters = {utt: c for sc in per_speaker for utt, c in sc["assignments"].items()}
    assert [row[4] for row in rows[1:]] == [str(clusters[f"u{i}"]) for i in range(8)]


def test_binary_format_through_cli(tmp_path):
    corpus = tmp_path / "c.bin"
    assert main(
        ["gen-synth", "--n-speakers", "3", "--n-emotions", "2", "--utts-per-cell", "6",
         "--dim", "5", "--format", "bin", "--seed", "1", "--out", str(corpus)]
    ) == 0
    assert corpus.read_bytes()[:4] == b"EMB1"
    run = tmp_path / "run.json"
    assert main(
        ["cluster", "--corpus", str(corpus), "--format", "bin", "--k", "2",
         "--seed", "0", "--out", str(run)]
    ) == 0
    assert "per_speaker" in json.loads(run.read_text())


def test_pca_rotation_preserves_variance():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(40, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
    proj = pca_project_2d(data)
    centered = data - data.mean(axis=0)
    assert np.trace(centered.T @ centered) == pytest.approx(np.trace(proj.T @ proj), rel=1e-9)


def test_pca_identical_points_at_origin():
    data = np.ones((10, 3))
    proj = pca_project_2d(data)
    assert np.allclose(proj, 0.0)


def test_pca_needs_two_dims():
    with pytest.raises(ValueError, match="dimension >= 2"):
        pca_project_2d(np.ones((5, 1)))


def test_project_group_variance_structure(tmp_path):
    # separable corpus: within-(speaker,emotion) 2D variance below total variance
    corpus_path = tmp_path / "c.jsonl"
    assert main(
        ["gen-synth", "--n-speakers", "3", "--n-emotions", "3", "--utts-per-cell", "15",
         "--dim", "6", "--emotion-offset", "2.0", "--within-noise", "0.3",
         "--seed", "2", "--out", str(corpus_path)]
    ) == 0
    csv = tmp_path / "p.csv"
    assert main(["project", "--corpus", str(corpus_path), "--out", str(csv)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    xy = np.array([[float(r[0]), float(r[1])] for r in rows])
    groups = [f"{r[2]}|{r[3]}" for r in rows]
    total_var = xy.var(axis=0).sum()
    within = []
    for g in set(groups):
        members = xy[[i for i, gg in enumerate(groups) if gg == g]]
        within.append(members.var(axis=0).sum())
    assert np.mean(within) < total_var


def test_eval_clusters_unlabeled_corpus_writes_null_averages(tmp_path, small_corpus):
    from emocluster.corpus import load_corpus, save_corpus, strip_labels

    unlabeled = tmp_path / "unlabeled.jsonl"
    save_corpus(strip_labels(load_corpus(str(small_corpus), "jsonl")), str(unlabeled), "jsonl")
    run = tmp_path / "run.json"
    assert main(["cluster", "--corpus", str(unlabeled), "--k", "4", "--seed", "1", "--out", str(run)]) == 0
    report = tmp_path / "report.json"
    table = tmp_path / "report.txt"
    assert main(
        ["eval-clusters", "--corpus", str(unlabeled), "--run", str(run),
         "--out", str(report), "--table", str(table)]
    ) == 0
    payload = json.loads(report.read_text())
    assert payload["per_speaker"] == {}
    assert payload["averages"] == {"nmi": None, "ari": None, "purity": None, "silhouette": None}
    assert payload["speakers_averaged"] == {"nmi": 0, "ari": 0, "purity": 0, "silhouette": 0}
    assert table.read_text().splitlines()[-1].split() == ["average", "-", "-", "-", "-"]


_RUN_READERS = ("eval-clusters", "mine-pairs", "project")


def _main_with_run(command, tmp_path, corpus, run):
    return main([command, "--corpus", str(corpus), "--run", str(run), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", _RUN_READERS)
def test_run_file_holding_a_list_exits_2(tmp_path, small_corpus, capsys, command):
    run = tmp_path / "run.json"
    run.write_text("[1, 2]\n")
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    assert f"{run}: clustering run must be a json object, not list" in capsys.readouterr().err


@pytest.mark.parametrize("command", _RUN_READERS)
@pytest.mark.parametrize("key", ["config", "centers"])
def test_run_file_missing_a_key_exits_2(tmp_path, small_corpus, capsys, command, key):
    good = tmp_path / "good.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--k", "2", "--out", str(good)]) == 0
    payload = json.loads(good.read_text())
    spk = sorted(payload["per_speaker"])[1]
    del (payload if key == "config" else payload["per_speaker"][spk])[key]
    run = tmp_path / "run.json"
    run.write_text(json.dumps(payload))
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    where = "" if key == "config" else f" (speaker {spk!r})"
    assert f"{run}: clustering run is missing key {key!r}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("command", _RUN_READERS)
def test_truncated_run_file_exits_2(tmp_path, small_corpus, capsys, command):
    good = tmp_path / "good.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--k", "2", "--out", str(good)]) == 0
    run = tmp_path / "run.json"
    run.write_bytes(good.read_bytes()[:40])
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    assert f"{run}: malformed clustering run (" in capsys.readouterr().err


def test_jsonl_corpus_with_invalid_utf8_exits_2(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(b'{"utt_id": "\xff", "spk_id": "s", "emotion": null, "vec": [1.0]}\n')
    assert main(["cluster", "--corpus", str(corpus), "--k", "2", "--out", str(tmp_path / "r.json")]) == 2
    assert f"{corpus}:1: not valid UTF-8 at byte 12" in capsys.readouterr().err


def test_config_file_with_invalid_utf8_exits_2(tmp_path, small_corpus, capsys):
    config = tmp_path / "conf.json"
    config.write_bytes(b'{"k": 1}\xff')
    argv = ["cluster", "--corpus", str(small_corpus), "--config", str(config), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert f"{config}: malformed config file ('utf-8' codec can't decode byte 0xff in position 8" in capsys.readouterr().err


def test_config_file_holding_no_object_exits_2(tmp_path, small_corpus, capsys):
    config = tmp_path / "conf.json"
    config.write_text("[1]\n")
    argv = ["cluster", "--corpus", str(small_corpus), "--config", str(config), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert f"emocluster: error: {config}: config file must be a json object, not list" in capsys.readouterr().err


def _clustered_run(tmp_path, corpus):
    good = tmp_path / "good.json"
    assert main(["cluster", "--corpus", str(corpus), "--k", "2", "--out", str(good)]) == 0
    return json.loads(good.read_text())


@pytest.mark.parametrize("command", _RUN_READERS)
def test_run_naming_unknown_utterance_exits_2(tmp_path, small_corpus, capsys, command):
    payload = _clustered_run(tmp_path, small_corpus)
    spk = sorted(payload["per_speaker"])[0]
    payload["per_speaker"][spk]["assignments"]["nope"] = 0
    run = tmp_path / "run.json"
    run.write_text(json.dumps(payload))
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"emocluster: error: {run}: ") and "'nope'" in err


@pytest.mark.parametrize("command", _RUN_READERS)
@pytest.mark.parametrize(
    "entry, detail", [(False, ", key 'assignments':"), (True, ": expected dict, got list)")], ids=["assignments", "entry"]
)
def test_ill_typed_run_value_names_speaker_and_key(tmp_path, small_corpus, capsys, command, entry, detail):
    # a list in place of the speaker's assignments, or of its whole entry
    payload = _clustered_run(tmp_path, small_corpus)
    spk = sorted(payload["per_speaker"])[1]
    if entry:
        payload["per_speaker"][spk] = [1, 2]
    else:
        payload["per_speaker"][spk]["assignments"] = [1, 2]
    run = tmp_path / "run.json"
    run.write_text(json.dumps(payload))
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    err = capsys.readouterr().err
    assert f"{run}: ill-typed value in clustering run (speaker {spk!r}{detail}" in err


@pytest.mark.parametrize("command", _RUN_READERS)
@pytest.mark.parametrize("key, value", [("assignments", 0.9), ("k", 2.5), ("inertia", "0.5")])
def test_ill_typed_run_value_is_not_coerced(tmp_path, small_corpus, capsys, command, key, value):
    # a fractional cluster or k is not read as an integer, nor a numeric string as a number
    payload = _clustered_run(tmp_path, small_corpus)
    spk = sorted(payload["per_speaker"])[0]
    speaker = payload["per_speaker"][spk]
    if key == "k":
        payload["config"]["k"] = value
    elif key == "assignments":
        speaker["assignments"][min(speaker["assignments"])] = value
    else:
        speaker[key] = value
    run = tmp_path / "run.json"
    run.write_text(json.dumps(payload))
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    where = "config" if key == "k" else f"speaker {spk!r}"
    assert f"{run}: ill-typed value in clustering run ({where}, key {key!r}: expected " in capsys.readouterr().err


def _malform(case: str, per_speaker: dict, spk: str, other: str) -> str:
    """Edit speaker `spk`'s entry of a run json so that it no longer fits the corpus, or add a
    speaker that the corpus lacks; return the speaker that the error names."""
    speaker = per_speaker[spk]
    first = sorted(speaker["assignments"])[0]
    if case == "ghost-speaker":  # no utterances, and centers of the corpus's dimension
        per_speaker["ghost"] = {"assignments": {}, "centers": speaker["centers"], "inertia": 0.0}
        return "ghost"
    if case == "speaker-left-out":
        del per_speaker[spk]
    elif case == "nan-center":
        speaker["centers"][1][0] = float("nan")
    elif case == "centers-one-dim-short":
        speaker["centers"] = [row[:-1] for row in speaker["centers"]]
    elif case.startswith("cluster"):
        speaker["assignments"][first] = int(case[len("cluster"):])
    elif case == "utterance-left-out":
        del speaker["assignments"][first]
    else:  # another speaker's utterance added
        speaker["assignments"][sorted(per_speaker[other]["assignments"])[0]] = 0
    return spk


# each edit `_malform` makes, and what the error then says
_MALFORMED_RUNS = {
    "nan-center": "center 1 is not finite",
    "centers-one-dim-short": "centers have shape (3, 7), not (k, 8)",
    "cluster7": "has cluster 7, not one of its 3 centers",
    "cluster-1": "has cluster -1, not one of its 3 centers",
    "utterance-left-out": "is not clustered",
    "other-speakers-utterance": "is not one of the speaker's utterances in the corpus",
    "speaker-left-out": "the corpus speaker is not in the run",
    "ghost-speaker": "the run speaker is not in the corpus",
}


@pytest.mark.parametrize("command", _RUN_READERS)
@pytest.mark.parametrize("case", list(_MALFORMED_RUNS))
def test_run_inconsistent_with_corpus_exits_2_naming_file_and_speaker(tmp_path, small_corpus, capsys, command, case):
    good = tmp_path / "good.json"
    assert main(["cluster", "--corpus", str(small_corpus), "--k", "3", "--out", str(good)]) == 0
    payload = json.loads(good.read_text())
    spk, other = sorted(payload["per_speaker"])[1:3]
    named = _malform(case, payload["per_speaker"], spk, other)
    run = tmp_path / "run.json"
    run.write_text(json.dumps(payload))
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"emocluster: error: {run}: speaker {named!r}: ") and _MALFORMED_RUNS[case] in err


@pytest.mark.parametrize("command", _RUN_READERS)
@pytest.mark.parametrize(
    "key, value, detail",
    [("k", -5, "k must be >= 1"), ("max_iters", 0, "max_iters and n_restarts must be >= 1"),
     ("n_restarts", 0, "max_iters and n_restarts must be >= 1"), ("tol", -1, "tol must be >= 0 and finite, got -1")],
    ids=["k", "max_iters", "n_restarts", "tol"],
)
def test_run_with_invalid_config_exits_2(tmp_path, small_corpus, capsys, command, key, value, detail):
    payload = _clustered_run(tmp_path, small_corpus)
    payload["config"][key] = value
    run = tmp_path / "run.json"
    run.write_text(json.dumps(payload))
    assert _main_with_run(command, tmp_path, small_corpus, run) == 2
    assert capsys.readouterr().err.startswith(f"emocluster: error: {run}: {detail}")


def test_run_file_with_effective_k_and_seed_used_reads_as_without(tmp_path, small_corpus):
    # runs once stored each speaker's effective_k and seed_used; both are ignored, even when they contradict the run
    payload = _clustered_run(tmp_path, small_corpus)
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**payload, "per_speaker": {
        spk: {**entry, "effective_k": 99, "seed_used": -5} for spk, entry in payload["per_speaker"].items()
    }}))
    for command in _RUN_READERS:
        outputs = []
        for run in (tmp_path / "good.json", old):
            out = tmp_path / f"{command}-{run.stem}.out"
            assert main([command, "--corpus", str(small_corpus), "--run", str(run), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
