"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload calls the package through module attributes (``trainer.
run_protocol``, not an imported name) so that the tracer's wrappers see the
call.  ``run`` is the timed pass; ``check`` runs after it, untimed, and
returns one (op, error) pair per operation, error None when the op passed.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from emocluster import cli, cluster_metrics, clustering, corpus, nn_core, pair_miner, trainer
from emocluster.objectives import MtlWeights


def nearest_center_error(points: np.ndarray, assign: np.ndarray, centers: np.ndarray, inertia=None):
    """Why an assignment is not a nearest-center one (or its inertia is off); None if fine."""
    diff = points[:, None, :] - centers[None, :, :]
    d = np.einsum("ijk,ijk->ij", diff, diff)
    own = d[np.arange(len(points)), assign]
    worse = own > d.min(axis=1) * (1.0 + 1e-12) + 1e-15
    if worse.any():
        return f"{int(worse.sum())} points not at their nearest center"
    if inertia is not None:
        recomputed = float(own.sum())
        if not math.isclose(inertia, recomputed, rel_tol=1e-9, abs_tol=0.0):
            return f"inertia {inertia!r} != recomputed {recomputed!r}"
    return None


class Protocol:
    """trainer.run_protocol on the criterion-5 corpus and model shape, one seed."""

    name = "protocol"
    steps = 300

    def setup(self, seed: int):
        spec = corpus.SynthSpec(
            n_speakers=48, n_emotions=4, utts_per_cell=24, dim=48,
            speaker_spread=1.0, emotion_offset_norm=3.0, within_noise=1.0, seed=seed,
        )
        data = corpus.length_normalize(corpus.generate_synthetic(spec))
        config = trainer.TrainConfig(
            steps=self.steps, batch_size=8, lr=1e-3, pretrain_lr=1e-3, epochs_ser=30,
            tau=0.1, n_clusters_N=20, seeds=(seed,), trunk_hidden=32,
            contrastive_hidden=32, contrastive_out=16, head_hidden=32, seed=seed,
            split_fractions=(0.25, 0.25, 0.5), pretrain_speaker_fraction=0.5,
            mtl_weights=MtlWeights(grl_lambda=4.0),
        )
        return data, config

    def run(self, inputs):
        data, config = inputs
        return trainer.run_protocol(data, config, label_fraction=0.05)

    def ops(self, inputs):
        _, config = inputs
        return [f"{mode}/seed{s}" for mode in trainer.MODES for s in config.seeds]

    @staticmethod
    def _cells(report) -> dict:
        return {f"{row['mode']}/seed{p['seed']}": p["uar"] for row in report["rows"] for p in row["per_seed"]}

    def check(self, inputs, report, first):
        cells = self._cells(report)
        ref = None if first is None else self._cells(first)
        out = []
        for op in self.ops(inputs):
            uar = cells.get(op)
            if uar is None:
                err = "cell missing from report"
            elif not (math.isfinite(uar) and 0.0 <= uar <= 1.0):
                err = f"uar {uar!r} not finite in [0, 1]"
            elif ref is not None and uar != ref.get(op):
                err = f"uar {uar!r} differs from first pass {ref.get(op)!r}"
            else:
                err = None
            out.append((op, err))
        return out

    def quality(self, report) -> dict:
        mean = {row["mode"]: row["mean_uar"] for row in report["rows"]}
        return {"uar_gap": mean["contrastive"] - mean["none"], "mean_uar": mean}


class Analysis:
    """Per-speaker k-means plus agreement metrics at real embedding scale."""

    name = "analysis"
    n_speakers = 2
    k = 20

    def setup(self, seed: int):
        spec = corpus.SynthSpec(n_speakers=self.n_speakers, n_emotions=4, utts_per_cell=250, dim=192, seed=seed)
        data = corpus.length_normalize(corpus.generate_synthetic(spec))
        return data, clustering.KMeansConfig(k=self.k, seed=seed)

    def run(self, inputs):
        data, config = inputs
        run = clustering.cluster_speakers(data, config)
        return run, cluster_metrics.evaluate_run(run, data)

    def ops(self, inputs):
        return sorted(inputs[0].speakers)

    def check(self, inputs, outputs, first):
        data, config = inputs
        run, report = outputs
        by_id = data.record_by_id()
        bounds = {"nmi": (0.0, 1.0), "ari": (-1.0, 1.0), "purity": (0.0, 1.0), "silhouette": (-1.0, 1.0)}
        out = []
        for spk in self.ops(inputs):
            sc = run.per_speaker.get(spk)
            metrics = report.per_speaker.get(spk, {})
            err = None
            if sc is None:
                err = "speaker missing from run"
            elif sc.effective_k != config.k:
                err = f"effective_k {sc.effective_k} != k {config.k}"
            else:
                utts = sorted(sc.assignments)
                points = np.stack([by_id[u].vec for u in utts])
                assign = np.asarray([sc.assignments[u] for u in utts])
                err = nearest_center_error(points, assign, sc.centers, sc.inertia)
            if err is None:
                for name, (lo, hi) in bounds.items():
                    v = metrics.get(name)
                    if v is None or not (math.isfinite(v) and lo <= v <= hi):
                        err = f"{name} {v!r} not finite in [{lo}, {hi}]"
                        break
            if err is None and first is not None:
                ref = first[0].per_speaker[spk]
                if (sc.inertia, sc.assignments, metrics) != (ref.inertia, ref.assignments, first[1].per_speaker[spk]):
                    err = "result differs from first pass"
            out.append((spk, err))
        return out

    def quality(self, outputs) -> dict:
        return {"nmi_avg": outputs[1].averages["nmi"], "averages": outputs[1].averages}


class CliPipeline:
    """In-process cli.main over every artifact format, in a work directory."""

    name = "cli_pipeline"
    n_speakers = 8
    utts_per_cell = 50
    dim = 192
    k = 4

    def __init__(self, workdir: str):
        self.workdir = workdir

    def setup(self, seed: int):
        spec = corpus.SynthSpec(
            n_speakers=self.n_speakers, n_emotions=4, utts_per_cell=self.utts_per_cell,
            dim=self.dim, seed=seed,
        )
        reference = corpus.generate_synthetic(spec)
        return seed, reference, corpus.length_normalize(reference)

    def _paths(self):
        names = ("corpus.jsonl", "corpus.bin", "run.json", "run_bin.json", "report.json", "report.txt",
                 "tuples.jsonl", "ckpt.json", "scatter.csv", "scatter.svg")
        return {n: os.path.join(self.workdir, n) for n in names}

    def commands(self, seed: int):
        """(op, argv, artifacts written) in pipeline order."""
        p = self._paths()
        gen = ["gen-synth", "--n-speakers", str(self.n_speakers), "--n-emotions", "4",
               "--utts-per-cell", str(self.utts_per_cell), "--dim", str(self.dim), "--seed", str(seed)]
        k = ["--k", str(self.k)]
        n = ["--n-clusters", str(self.k)]
        return [
            ("gen-synth", gen + ["--out", p["corpus.jsonl"]], ["corpus.jsonl"]),
            ("gen-synth-bin", gen + ["--format", "bin", "--out", p["corpus.bin"]], ["corpus.bin"]),
            ("cluster", ["cluster", "--corpus", p["corpus.jsonl"], *k, "--seed", str(seed + 1),
                         "--out", p["run.json"]], ["run.json"]),
            ("cluster-bin", ["cluster", "--corpus", p["corpus.bin"], "--format", "bin", *k,
                             "--seed", str(seed + 1), "--out", p["run_bin.json"]], ["run_bin.json"]),
            ("eval-clusters", ["eval-clusters", "--corpus", p["corpus.jsonl"], "--run", p["run.json"],
                               "--out", p["report.json"], "--table", p["report.txt"]],
             ["report.json", "report.txt"]),
            ("mine-pairs", ["mine-pairs", "--corpus", p["corpus.jsonl"], "--run", p["run.json"], *n,
                            "--seed", str(seed + 2), "--out", p["tuples.jsonl"]], ["tuples.jsonl"]),
            ("pretrain", ["pretrain", "--corpus", p["corpus.jsonl"], "--mode", "contrastive",
                          "--steps", "100", *n, "--seed", str(seed + 3), "--out", p["ckpt.json"]],
             ["ckpt.json", "ckpt.json.bin"]),
            ("project", ["project", "--corpus", p["corpus.jsonl"], "--run", p["run.json"],
                         "--out", p["scatter.csv"], "--svg", p["scatter.svg"]],
             ["scatter.csv", "scatter.svg"]),
        ]

    def run(self, inputs):
        seed = inputs[0]
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for op, argv, _ in self.commands(seed):
                codes[op] = cli.main(argv)
        return codes

    def ops(self, inputs):
        return [op for op, _, _ in self.commands(inputs[0])]

    def _artifact_digests(self, files):
        out = {}
        for name in files:
            with open(os.path.join(self.workdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def _reload(self, op, inputs):
        """Reload the op's artifacts through the package's readers and check them."""
        _, reference, normalized = inputs
        p = self._paths()
        ids = [r.utt_id for r in reference.records]
        if op in ("gen-synth", "gen-synth-bin"):
            fmt = "jsonl" if op == "gen-synth" else "bin"
            loaded = corpus.load_corpus(p["corpus.jsonl" if fmt == "jsonl" else "corpus.bin"], fmt)
            expect = reference.matrix() if fmt == "jsonl" else reference.matrix().astype("<f4").astype(np.float64)
            if [r.utt_id for r in loaded.records] != ids or not np.array_equal(loaded.matrix(), expect):
                return f"{fmt} corpus does not round-trip the generated corpus"
        elif op in ("cluster", "cluster-bin"):
            with open(p["run.json" if op == "cluster" else "run_bin.json"], encoding="utf-8") as fh:
                run = clustering.run_from_dict(json.load(fh))
            if op == "cluster":
                by_id = normalized.record_by_id()
                for spk, sc in sorted(run.per_speaker.items()):
                    utts = sorted(sc.assignments)
                    if utts != sorted(ids[i] for i in normalized.speakers[spk]) or sc.effective_k != self.k:
                        return f"speaker {spk}: wrong utterances or effective_k"
                    points = np.stack([by_id[u].vec for u in utts])
                    err = nearest_center_error(points, np.asarray([sc.assignments[u] for u in utts]), sc.centers)
                    if err:
                        return f"speaker {spk}: {err}"
            elif sorted(run.per_speaker) != sorted(reference.speakers):
                return "binary-corpus run does not cover every speaker"
        elif op == "eval-clusters":
            with open(p["report.json"], encoding="utf-8") as fh:
                averages = json.load(fh)["averages"]
            if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in averages.values()):
                return f"averages out of range: {averages}"
        elif op == "mine-pairs":
            tuples = pair_miner.load_tuples(p["tuples.jsonl"])
            known = set(ids)
            if not tuples or any(t.anchor not in known or t.positive not in known for t in tuples):
                return "tuples empty or naming unknown utterances"
        elif op == "pretrain":
            components, meta = nn_core.load_checkpoint(p["ckpt.json"])
            if {"encoder", "contrastive"} - set(components) or meta.get("mode") != "contrastive":
                return "checkpoint lacks the contrastive components"
        elif op == "project":
            with open(p["scatter.csv"], encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            if len(rows) != len(ids) + 1:
                return f"{len(rows) - 1} projected rows for {len(ids)} utterances"
        return None

    def check(self, inputs, codes, first):
        out = []
        for op, _, files in self.commands(inputs[0]):
            err = None
            if codes.get(op) != 0:
                err = f"exit code {codes.get(op)}"
            elif not os.path.exists(os.path.join(self.workdir, files[0]) + ".manifest.json"):
                err = "manifest missing"
            else:
                try:
                    err = self._reload(op, inputs)
                except (OSError, ValueError, KeyError) as exc:
                    err = f"artifact does not reload: {exc}"
            if err is None:
                digests = self._artifact_digests(files)
                codes.setdefault("_digests", {})[op] = digests
                if first is not None and first["_digests"].get(op) != digests:
                    err = "artifacts differ from first pass"
            out.append((op, err))
        return out

    def quality(self, codes) -> dict:
        return {}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
