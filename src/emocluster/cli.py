"""Command-line entry point wiring the pipeline stages together.

Every command is a pure function of (inputs, flags, seed): artifacts are
written in canonical form so reruns are byte-identical.  A RunManifest
json (command, resolved config, paths, seed, version, duration) is placed
next to each declared output.

Exit codes: 0 success, 1 usage error, 2 data/invariant error, 3 numerical
failure.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .cluster_metrics import evaluate_run, report_to_dict, report_to_table
from .clustering import KMeansConfig, cluster_speakers, run_from_dict, run_to_dict
from .corpus import (
    Corpus,
    CorpusError,
    SynthSpec,
    generate_synthetic,
    length_normalize,
    load_corpus,
    save_corpus,
)
from .nn_core import grad_check, save_checkpoint
from .objectives import MtlWeights
from .pair_miner import MiningConfig, mine_tuples, save_tuples
from .serialize import canonical_dumps, format_float
from .trainer import (
    MODES,
    TrainConfig,
    config_to_dict,
    grad_check_cases,
    pretrain,
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


def _write_manifest(command: str, args: argparse.Namespace, inputs: list, outputs: list, started: float) -> None:
    resolved = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config", "inputs", "outputs")
        and not k.startswith("_")
        and not callable(v)
    }
    manifest = {
        "command": command,
        "config": resolved,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    if outputs:
        _write_text(str(outputs[0]) + ".manifest.json", canonical_dumps(manifest) + "\n")


def _load_input_corpus(args, normalize: bool) -> Corpus:
    corpus = load_corpus(args.corpus, args.format)
    return length_normalize(corpus) if normalize else corpus


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
    corpus = _load_input_corpus(args, not args.no_normalize)
    config = KMeansConfig(
        k=args.k, max_iters=args.max_iters, tol=args.tol, n_restarts=args.restarts, seed=args.seed
    )
    run = cluster_speakers(corpus, config)
    _write_text(args.out, canonical_dumps(run_to_dict(run)) + "\n")
    return EXIT_OK


def cmd_eval_clusters(args) -> int:
    corpus = _load_input_corpus(args, not args.no_normalize)
    with open(args.run, "r", encoding="utf-8") as fh:
        run = run_from_dict(json.load(fh))
    report = evaluate_run(run, corpus)
    _write_text(args.out, canonical_dumps(report_to_dict(report)) + "\n")
    if args.table:
        _write_text(args.table, report_to_table(report))
    return EXIT_OK


def cmd_mine_pairs(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    with open(args.run, "r", encoding="utf-8") as fh:
        run = run_from_dict(json.load(fh))
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
    corpus = _load_input_corpus(args, not args.no_normalize)
    config = _train_config_from_args(args, mode=args.mode)
    checkpoint = pretrain(corpus, config)
    final_losses = {
        name: (values[-1] if values else None) for name, values in checkpoint.history.items()
    }
    meta = {
        "mode": checkpoint.mode,
        "seed": checkpoint.seed,
        "step": checkpoint.steps,
        "final_losses": final_losses,
        "config": config_to_dict(config),
    }
    save_checkpoint(args.out, checkpoint.components, meta)
    return EXIT_OK


def cmd_probe(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    config = _train_config_from_args(
        args, lr=args.lr, epochs_ser=args.epochs, seeds=tuple(args.seeds)
    )
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    report = run_protocol(corpus, config, modes=modes, label_fraction=args.label_fraction)
    _write_text(args.out, canonical_dumps(report) + "\n")
    if args.table:
        _write_text(args.table, protocol_to_table(report))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    config = TrainConfig(tau=args.tau, seed=args.seed)
    cases = grad_check_cases(args.head, config, seed=args.seed, grl_lambda=args.grl_lambda)
    results = {}
    worst = 0.0
    for name, loss_fn, params in cases:
        err = grad_check(loss_fn, params, eps=args.eps)
        results[name] = err
        worst = max(worst, err)
        print(f"{name}: max relative error {err:.3e}")
    if args.out:
        payload = {
            "tolerance": args.tol,
            "max_relative_error": worst,
            "cases": {k: v for k, v in sorted(results.items())},
            "passed": worst <= args.tol,
        }
        _write_text(args.out, canonical_dumps(payload) + "\n")
    if worst > args.tol:
        print(f"grad-check FAILED: {worst:.3e} > {args.tol:.3e}", file=sys.stderr)
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


_SVG_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _scatter_svg(points: np.ndarray, groups: list[str], size: int = 640) -> str:
    span = max(1e-12, float(np.abs(points).max()))
    scale = (size / 2 - 20) / span
    palette = {g: _SVG_PALETTE[i % len(_SVG_PALETTE)] for i, g in enumerate(sorted(set(groups)))}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for (x, y), group in zip(points, groups):
        cx = size / 2 + x * scale
        cy = size / 2 - y * scale
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{palette[group]}" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_project(args) -> int:
    corpus = load_corpus(args.corpus, args.format)
    assignments = {}
    if args.run:
        with open(args.run, "r", encoding="utf-8") as fh:
            run = run_from_dict(json.load(fh))
        for sc in run.per_speaker.values():
            assignments.update(sc.assignments)
    points = pca_project_2d(corpus.matrix())
    lines = ["x,y,spk_id,emotion,cluster"]
    for rec, (x, y) in zip(corpus.records, points):
        cluster = assignments.get(rec.utt_id, "")
        lines.append(
            f"{format_float(float(x))},{format_float(float(y))},{rec.spk_id},{rec.emotion or ''},{cluster}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        groups = [f"{rec.spk_id}_{rec.emotion or 'unlabeled'}" for rec in corpus.records]
        _write_text(args.svg, _scatter_svg(points, groups))
    return EXIT_OK


# ----------------------------------------------------------------- arg wiring

def _add_corpus_args(p: _Parser) -> None:
    p.add_argument("--corpus", required=True, help="corpus file path")
    p.add_argument("--format", choices=("jsonl", "bin"), default="jsonl")


def _int_list(raw: str) -> list[int]:
    return [int(x) for x in raw.split(",") if x.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="emocluster", description=__doc__)
    parser.add_argument("--version", action="version", version=f"emocluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic embedding corpus", parents=[])
    p.add_argument("--n-speakers", type=int, default=10)
    p.add_argument("--n-emotions", type=int, default=4)
    p.add_argument("--utts-per-cell", type=int, default=80)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--speaker-spread", type=float, default=1.0)
    p.add_argument("--emotion-offset", type=float, default=1.0)
    p.add_argument("--within-noise", type=float, default=0.25)
    p.add_argument("--emotion-dir-jitter", type=float, default=0.0)
    p.add_argument("--format", choices=("jsonl", "bin"), default="jsonl")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth, inputs=lambda a: [], outputs=lambda a: [a.out])

    p = sub.add_parser("cluster", help="per-speaker k-means over a corpus")
    _add_corpus_args(p)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--no-normalize", action="store_true", help="skip length normalization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster, inputs=lambda a: [a.corpus], outputs=lambda a: [a.out])

    p = sub.add_parser("eval-clusters", help="NMI/ARI/purity/silhouette per speaker")
    _add_corpus_args(p)
    p.add_argument("--run", required=True, help="clustering run json")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--table", default=None, help="also write an aligned text table here")
    p.add_argument("--out", required=True)
    p.set_defaults(
        func=cmd_eval_clusters,
        inputs=lambda a: [a.corpus, a.run],
        outputs=lambda a: [a.out] + ([a.table] if a.table else []),
    )

    p = sub.add_parser("mine-pairs", help="mine contrastive tuples from intra-speaker clusters")
    _add_corpus_args(p)
    p.add_argument("--run", required=True)
    p.add_argument("--n-clusters", type=int, default=20)
    p.add_argument("--exact-negatives", action="store_true",
                   help="skip anchors that cannot fill the N/2 negative window")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine_pairs, inputs=lambda a: [a.corpus, a.run], outputs=lambda a: [a.out])

    def add_train_flags(p: _Parser) -> None:
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--batch-size", type=int, default=8)
        p.add_argument("--pre-lr", type=float, default=1e-4)
        p.add_argument("--tau", type=float, default=0.1)
        p.add_argument("--n-clusters", type=int, default=20)
        p.add_argument("--mtl-w-spk", type=float, default=1.0)
        p.add_argument("--grl-lambda", type=float, default=1.0)
        p.add_argument("--include-positive-denominator", action="store_true")
        p.add_argument("--trunk-hidden", type=int, default=32)
        p.add_argument("--contrastive-out", type=int, default=128)

    p = sub.add_parser("pretrain", help="pretrain encoder + heads on an unlabeled corpus")
    _add_corpus_args(p)
    p.add_argument("--mode", choices=[m for m in MODES if m != "none"], default="contrastive")
    add_train_flags(p)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint manifest path (blob at <out>.bin)")
    p.set_defaults(
        func=cmd_pretrain, inputs=lambda a: [a.corpus], outputs=lambda a: [a.out, a.out + ".bin"]
    )

    p = sub.add_parser("probe", help="full protocol: pretrain modes x SER seeds, report UAR")
    _add_corpus_args(p)
    p.add_argument("--modes", default="none,spk_cls,contrastive,mtl_adversarial,mtl")
    p.add_argument("--label-fraction", type=float, default=0.05)
    add_train_flags(p)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seeds", type=_int_list, default=[0, 1, 2, 3, 4])
    p.add_argument("--table", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(
        func=cmd_probe,
        inputs=lambda a: [a.corpus],
        outputs=lambda a: [a.out] + ([a.table] if a.table else []),
    )

    p = sub.add_parser("grad-check", help="finite-difference check of analytic gradients")
    p.add_argument("--head", choices=("contrastive", "speaker_cls", "emotion_cls", "mtl", "all"), default="all")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--grl-lambda", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(
        func=cmd_grad_check, inputs=lambda a: [], outputs=lambda a: [a.out] if a.out else []
    )

    p = sub.add_parser("project", help="2D PCA projection export (csv, optional svg)")
    _add_corpus_args(p)
    p.add_argument("--run", default=None, help="optional clustering run json for cluster column")
    p.add_argument("--svg", default=None, help="also write a scatter svg here")
    p.add_argument("--out", required=True)
    p.set_defaults(
        func=cmd_project,
        inputs=lambda a: [a.corpus] + ([a.run] if a.run else []),
        outputs=lambda a: [a.out] + ([a.svg] if a.svg else []),
    )

    for sp in sub.choices.values():
        sp.add_argument("--config", default=None, help="json file supplying flag defaults")
    parser.set_defaults(_subcommands=sub.choices)
    return parser


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Fold --config file values in as defaults; explicit flags still win."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv
    path = argv[at + 1]
    with open(path, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise CorpusError(f"{path}: config file must hold a json object")
    defaults = {k.replace("-", "_"): v for k, v in values.items()}
    for sp in parser.get_default("_subcommands").values():
        known = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, json.JSONDecodeError, CorpusError) as exc:
        print(f"emocluster: error: {exc}", file=sys.stderr)
        return EXIT_DATA

    started = time.monotonic()
    try:
        code = args.func(args)
    except FloatingPointError as exc:
        print(f"emocluster: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"emocluster: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if code == EXIT_OK:
        _write_manifest(args.command, args, args.inputs(args), args.outputs(args), started)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
