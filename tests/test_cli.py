import hashlib
import json

import numpy as np
import pytest

from emocluster.cli import main, pca_project_2d

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
    assert manifest["config"]["n_speakers"] == 4


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
    assert outputs["one"] == outputs["two"]


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
    assert meta["mode"] == "mtl" and meta["step"] == 40


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
