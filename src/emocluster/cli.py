"""Command-line entry point wiring the pipeline stages together.

Every command is a pure function of (inputs, flags, seed): artifacts are
written in canonical form so reruns are byte-identical.  A RunManifest
json (command, resolved config, paths, version, duration) is placed next
to each command's first output.

Exit codes: 0 success, 1 usage error, 2 data/invariant error, 3 numerical
failure.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .cluster_metrics import evaluate_run, report_to_dict, report_to_table
from .clustering import KMeansConfig, cluster_speakers, load_run, run_to_dict
from .corpus import SynthSpec, generate_synthetic, length_normalize, load_corpus, save_corpus
from .nn_core import grad_check, save_checkpoint
from .objectives import MtlWeights
from .pair_miner import MiningConfig, mine_tuples, save_tuples
from .parallel import worker_count
from .serialize import CorpusError, format_float, read_json, write_jsonl
from .trainer import (
    MODES,
    TrainConfig,
    grad_check_cases,
    pretrain,
    pretrain_config_to_dict,
    protocol_to_table,
    run_protocol,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(args: argparse.Namespace, started: float) -> None:
    """The files a command read and wrote are the values of its path flags;
    pretrain's checkpoint blob sits at <out>.bin."""
    flags = vars(args)
    inputs = [flags[k] for k in ("corpus", "run") if flags.get(k)]
    outputs = [flags[k] for k in ("out", "table", "svg") if flags.get(k)]
    if args.command == "pretrain":
        outputs.append(args.out + ".bin")
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(flags.items()) if k not in ("command", "func", "config") and k[0] != "_"},
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
        "workers": worker_count(),
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    if outputs:
        write_jsonl(outputs[0] + ".manifest.json", [manifest])


# ------------------------------------------------------------------- commands

def cmd_gen_synth(args) -> int:
    spec = SynthSpec(
        n_speakers=args.n_speakers,
        n_emotions=args.n_emotions,
        utts_per_cell=args.utts_per_cell,
        dim=args.dim,
        speaker_spread=args.speaker_spread,
        emotion_offset_norm=args.emotion_offset,
        within_noise=args.within_noise,
        seed=args.seed,
        emotion_dir_jitter=args.emotion_dir_jitter,
    )
    corpus = generate_synthetic(spec)
    save_corpus(corpus, args.out, args.format)
    return EXIT_OK


def cmd_cluster(args) -> int:
    corpus = length_normalize(load_corpus(args.corpus, args.format))
    config = KMeansConfig(
        k=args.k, max_iters=args.max_iters, tol=args.tol, n_restarts=args.restarts, seed=args.seed
    )
    run = cluster_speakers(corpus, config)
    write_jsonl(args.out, [run_to_dict(run)])
    return EXIT_OK


def cmd_eval_clusters(args) -> int:
    corpus = length_normalize(load_corpus(args.corpus, args.format))
    report = evaluate_run(load_run(args.run, corpus), corpus)
    write_jsonl(args.out, [report_to_dict(report)])
    if args.table:
        _write_text(args.table, report_to_table(report))
    return EXIT_OK


def cmd_mine_pairs(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    run = load_run(args.run, corpus)
    config = MiningConfig(
        n_clusters_N=args.n_clusters,
        seed=args.seed,
        allow_fewer_negatives=not args.exact_negatives,
    )
    report: dict = {}
    tuples = mine_tuples(run, corpus, config, report=report)
    save_tuples(tuples, args.out)
    print(
        f"mined {report['emitted']} tuples "
        f"(skipped: {report['skipped_singleton']} singleton anchors, "
        f"{report['skipped_too_few_clusters']} anchors in <2-cluster speakers, "
        f"{report['skipped_short_window']} short windows)"
    )
    return EXIT_OK


def _train_config_from_args(args, **extra) -> TrainConfig:
    return TrainConfig(
        steps=args.steps,
        batch_size=args.batch_size,
        pretrain_lr=args.pre_lr,
        tau=args.tau,
        n_clusters_N=args.n_clusters,
        mtl_weights=MtlWeights(w_speaker=args.mtl_w_spk, grl_lambda=args.grl_lambda),
        include_positive_in_denominator=args.include_positive_denominator,
        trunk_hidden=args.trunk_hidden,
        contrastive_out=args.contrastive_out,
        seed=args.seed,
        **extra,
    )


def cmd_pretrain(args) -> int:
    corpus = length_normalize(load_corpus(args.corpus, args.format))
    config = _train_config_from_args(args, mode=args.mode)
    checkpoint = pretrain(corpus, config)
    final_losses = {
        name: (values[-1] if values else None) for name, values in checkpoint.history.items()
    }
    meta = {"mode": config.mode, "final_losses": final_losses, "config": pretrain_config_to_dict(config)}
    save_checkpoint(args.out, checkpoint.components, meta)
    return EXIT_OK


def cmd_probe(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    config = _train_config_from_args(
        args, lr=args.lr, epochs_ser=args.epochs, seeds=tuple(args.seeds)
    )
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    report = run_protocol(corpus, config, modes=modes, label_fraction=args.label_fraction)
    write_jsonl(args.out, [report])
    if args.table:
        _write_text(args.table, protocol_to_table(report))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    config = TrainConfig(tau=args.tau, seed=args.seed, mtl_weights=MtlWeights(grl_lambda=args.grl_lambda))
    cases = grad_check_cases(args.head, config)
    results = {}
    worst = 0.0
    for name, loss_fn, params in cases:
        err = grad_check(loss_fn, params, eps=args.eps)
        results[name] = err
        worst = max(worst, err)
        print(f"{name}: max relative error {err:.3e}")
    passed = math.isfinite(worst) and worst <= args.tol  # a non-finite error passes no tolerance, not even inf
    if args.out:
        finite = lambda x: x if math.isfinite(x) else None  # json has no inf or nan
        payload = {
            "tolerance": finite(args.tol),
            "max_relative_error": finite(worst),
            "cases": {k: finite(v) for k, v in sorted(results.items())},
            "passed": passed,
        }
        write_jsonl(args.out, [payload])
    if not passed:
        print(
            f"grad-check FAILED: {worst:.3e} is not a finite error within tolerance {args.tol:.3e}", file=sys.stderr
        )
        return EXIT_NUMERIC
    return EXIT_OK


def pca_project_2d(matrix: np.ndarray) -> np.ndarray:
    """Project rows onto the top-2 principal axes (exact eigendecomposition).

    Component signs are fixed (largest-magnitude loading positive) so the
    output is deterministic.
    """
    if matrix.shape[1] < 2:
        raise ValueError("projection needs dimension >= 2")
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(1, centered.shape[0])
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, np.argsort(-eigvals)[:2]].T
    for i in range(2):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    return centered @ components.T


_SVG_SIZE = 640  # scatter plot width and height, px
_SVG_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _scatter_svg(points: np.ndarray, groups: list[str]) -> str:
    span = max(1e-12, float(np.abs(points).max()))
    scale = (_SVG_SIZE / 2 - 20) / span
    palette = {g: _SVG_PALETTE[i % len(_SVG_PALETTE)] for i, g in enumerate(sorted(set(groups)))}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]
    for (x, y), group in zip(points, groups):
        cx = _SVG_SIZE / 2 + x * scale
        cy = _SVG_SIZE / 2 - y * scale
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{palette[group]}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_project(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    assignments = {}
    if args.run:
        run = load_run(args.run, corpus)
        for sc in run.per_speaker.values():
            assignments.update(sc.assignments)
    points = pca_project_2d(corpus.vectors)
    lines = ["x,y,spk_id,emotion,cluster"]
    for utt_id, spk_id, emotion, (x, y) in zip(corpus.utt_ids, corpus.spk_ids, corpus.emotions, points):
        cluster = assignments.get(utt_id, "")
        lines.append(f"{format_float(float(x))},{format_float(float(y))},{spk_id},{emotion or ''},{cluster}")
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        groups = [f"{spk_id}_{emotion or 'unlabeled'}" for spk_id, emotion in zip(corpus.spk_ids, corpus.emotions)]
        _write_text(args.svg, _scatter_svg(points, groups))
    return EXIT_OK


# ----------------------------------------------------------------- arg wiring

def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="emocluster", description=__doc__)
    parser.add_argument("--version", action="version", version=f"emocluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # built per call: a parent's Action objects are shared by its subcommands,
    # and main() toggles their `required`
    fmt, corpus, seed, out, train, config = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    fmt.add_argument("--format", choices=("jsonl", "bin"), default="jsonl")
    corpus.add_argument("--corpus", required=True, help="corpus file path")
    seed.add_argument("--seed", type=int, default=0)
    out.add_argument("--out", required=True, help="output path")
    config.add_argument("--config", default=None, help="json file supplying flag values")
    train.add_argument("--steps", type=int, default=1000)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--pre-lr", type=float, default=1e-4)
    train.add_argument("--tau", type=float, default=0.1)
    train.add_argument("--n-clusters", type=int, default=20)
    train.add_argument("--mtl-w-spk", type=float, default=1.0)
    train.add_argument("--grl-lambda", type=float, default=1.0)
    train.add_argument("--include-positive-denominator", action="store_true")
    train.add_argument("--trunk-hidden", type=int, default=32)
    train.add_argument("--contrastive-out", type=int, default=128)

    def command(name: str, func, summary: str, *parents) -> _Parser:
        p = sub.add_parser(name, help=summary, parents=[*parents, config])
        p.set_defaults(func=func)
        return p

    p = command("gen-synth", cmd_gen_synth, "generate a synthetic embedding corpus", fmt, seed, out)
    p.add_argument("--n-speakers", type=int, default=10)
    p.add_argument("--n-emotions", type=int, default=4)
    p.add_argument("--utts-per-cell", type=int, default=80)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--speaker-spread", type=float, default=1.0)
    p.add_argument("--emotion-offset", type=float, default=1.0)
    p.add_argument("--within-noise", type=float, default=0.25)
    p.add_argument("--emotion-dir-jitter", type=float, default=0.0)

    p = command("cluster", cmd_cluster, "per-speaker k-means over a corpus", corpus, fmt, seed, out)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=10)

    p = command("eval-clusters", cmd_eval_clusters, "NMI/ARI/purity/silhouette per speaker", corpus, fmt, out)
    p.add_argument("--run", required=True, help="clustering run json")
    p.add_argument("--table", default=None, help="also write an aligned text table here")

    p = command("mine-pairs", cmd_mine_pairs, "mine contrastive tuples from intra-speaker clusters",
                corpus, fmt, seed, out)
    p.add_argument("--run", required=True)
    p.add_argument("--n-clusters", type=int, default=20)
    p.add_argument("--exact-negatives", action="store_true",
                   help="skip anchors that cannot fill the N/2 negative window")

    p = command("pretrain", cmd_pretrain, "pretrain encoder + heads on an unlabeled corpus (blob at <out>.bin)",
                corpus, fmt, train, seed, out)
    p.add_argument("--mode", choices=[m for m in MODES if m != "none"], default="contrastive")

    p = command("probe", cmd_probe, "full protocol: pretrain modes x SER seeds, report UAR",
                corpus, fmt, train, seed, out)
    p.add_argument("--modes", default="none,spk_cls,contrastive,mtl_adversarial,mtl")
    p.add_argument("--label-fraction", type=float, default=0.05)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seeds", type=_int_list, default=[0, 1, 2, 3, 4])
    p.add_argument("--table", default=None)

    p = command("grad-check", cmd_grad_check, "finite-difference check of analytic gradients", seed)
    p.add_argument("--head", choices=("contrastive", "speaker_cls", "emotion_cls", "mtl", "all"), default="all")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--grl-lambda", type=float, default=1.0)
    p.add_argument("--out", default=None)

    p = command("project", cmd_project, "2D PCA projection export (csv, optional svg)", corpus, fmt, out)
    p.add_argument("--run", default=None, help="optional clustering run json for cluster column")
    p.add_argument("--svg", default=None, help="also write a scatter svg here")

    parser.set_defaults(_subcommands=sub.choices)
    return parser


def _apply_config_file(parser: _Parser, path: str) -> set[str]:
    """Fold a --config file's values in as flag defaults and return the dests
    it supplied; explicit flags still win.  A key may name a flag of any
    subcommand, so one file can serve several; a key that names none (help
    and config name no flag a file can set), or a flag that another key
    names too, raises CorpusError."""
    values = read_json(path, "config file")
    keys: dict[str, str] = {}
    for key in values:
        other = keys.setdefault(key.replace("-", "_"), key)
        if other != key:
            raise CorpusError(f"{path}: config keys {other!r} and {key!r} name one flag")
    known = set()
    for sp in parser.get_default("_subcommands").values():
        for action in sp._actions:
            if action.dest in keys and action.dest not in ("help", "config"):
                known.add(action.dest)
                key = keys[action.dest]
                sp.set_defaults(**{action.dest: _config_value(action, values[key], f"{path}: config key {key!r}")})
    for dest, key in keys.items():
        if dest not in known:
            raise CorpusError(f"{path}: config key {key!r} names no flag")
    return known


def _config_value(action: argparse.Action, value, where: str):
    """A config file value as its flag would parse it: a switch takes a json
    boolean; any other flag a json string or number, read by the flag's own
    type from its text.  Anything else raises CorpusError naming `where`."""
    switch = action.nargs == 0
    if isinstance(value, bool) != switch or not isinstance(value, (str, int, float)):
        wanted = "true or false" if switch else "a string or a number"
        raise CorpusError(f"{where}: takes {wanted}, not {json.dumps(value)}")
    if switch:
        return value
    try:
        parsed = action.type(str(value)) if action.type else str(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise CorpusError(f"{where}: invalid value {json.dumps(value)} ({exc})") from exc
    if action.choices is not None and parsed not in action.choices:
        raise CorpusError(f"{where}: {parsed!r} is not one of {', '.join(map(str, action.choices))}")
    return parsed


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # the first parse only locates --config, which may supply required flags
    required = [a for sp in parser.get_default("_subcommands").values() for a in sp._actions if a.required]
    try:
        for action in required:
            action.required = False
        args = parser.parse_args(argv)
        supplied = _apply_config_file(parser, args.config) if args.config else set()
        for action in required:
            action.required = action.dest not in supplied
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, CorpusError) as exc:
        print(f"emocluster: error: {exc}", file=sys.stderr)
        return EXIT_DATA

    started = time.monotonic()
    try:
        code = args.func(args)
    except FloatingPointError as exc:
        print(f"emocluster: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusError, ValueError, KeyError, OSError) as exc:
        print(f"emocluster: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if code == EXIT_OK:
        _write_manifest(args, started)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
