"""Span tracing around the package's public functions, and per-layer metrics.

The tracer replaces module attributes with timing wrappers, under the name
each caller looks up (``trainer.ntxent_variant`` is what ``trainer`` calls,
so that is the attribute wrapped).  Each wrapper records a span: name,
start, end and parent span.  The parent comes from a thread-local stack;
``parallel.map_keyed`` hands its own span to the worker threads it runs
jobs on, so per-speaker k-means spans nest under it.

Spans stay in memory and are written out by ``dump``.  Every per-layer
metric is given per set-up plus pass: set-up spans are divided by the
number of set-ups traced and pass spans by the number of passes traced.
"""

import hashlib
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = (
    "corpus", "clustering", "parallel", "cluster_metrics", "pair_miner",
    "objectives", "nn_core", "trainer", "serialize", "cli",
)

# (module the caller lives in, attribute the caller looks up, span name).
# A span name is "<layer>.<function>"; several call sites share one name.
TARGETS = (
    ("corpus", "generate_synthetic", "corpus.generate_synthetic"),
    ("cli", "generate_synthetic", "corpus.generate_synthetic"),
    ("corpus", "length_normalize", "corpus.length_normalize"),
    ("cli", "length_normalize", "corpus.length_normalize"),
    ("cli", "load_corpus", "corpus.load_corpus"),
    ("cli", "save_corpus", "corpus.save_corpus"),
    ("trainer", "cluster_speakers", "clustering.cluster_speakers"),
    ("cli", "cluster_speakers", "clustering.cluster_speakers"),
    ("clustering", "cluster_speakers", "clustering.cluster_speakers"),
    ("clustering", "cluster_speaker", "clustering.cluster_speaker"),
    ("clustering", "kmeans", "clustering.kmeans"),
    ("clustering", "map_keyed", "parallel.map_keyed"),
    ("cli", "evaluate_run", "cluster_metrics.evaluate_run"),
    ("cluster_metrics", "evaluate_run", "cluster_metrics.evaluate_run"),
    ("cluster_metrics", "silhouette", "cluster_metrics.silhouette"),
    ("trainer", "mine_tuples", "pair_miner.mine_tuples"),
    ("cli", "mine_tuples", "pair_miner.mine_tuples"),
    ("cli", "save_tuples", "pair_miner.save_tuples"),
    ("trainer", "ntxent_variant", "objectives.ntxent_variant"),
    ("trainer", "cross_entropy", "objectives.cross_entropy"),
    ("trainer", "forward", "nn_core.forward"),
    ("trainer", "backward", "nn_core.backward"),
    ("trainer", "adamw_step", "nn_core.adamw_step"),
    ("cli", "save_checkpoint", "nn_core.save_checkpoint"),
    ("trainer", "run_protocol", "trainer.run_protocol"),
    ("cli", "run_protocol", "trainer.run_protocol"),
    ("trainer", "pretrain", "trainer.pretrain"),
    ("cli", "pretrain", "trainer.pretrain"),
    ("trainer", "train_ser", "trainer.train_ser"),
    ("trainer", "evaluate_uar", "trainer.evaluate_uar"),
    ("cli", "canonical_dumps", "serialize.canonical_dumps"),
    ("corpus", "canonical_dumps", "serialize.canonical_dumps"),
    ("pair_miner", "canonical_dumps", "serialize.canonical_dumps"),
    ("serialize", "canonical_dumps", "serialize.canonical_dumps"),
    ("cli", "main", "cli.main"),
)

CLI_COMMANDS = ("gen-synth", "cluster", "eval-clusters", "mine-pairs", "pretrain", "project")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    phase: str  # "setup-<i>" or "pass-<i>"

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _corpus_key(corpus) -> str:
    """Content key of a corpus, so equal inputs built twice compare equal."""
    h = hashlib.sha1()
    for rec in corpus.records:
        h.update(rec.utt_id.encode())
    h.update(corpus.matrix().tobytes())
    return h.hexdigest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _on_load_corpus(tracer, args, kwargs, result):
    tracer.count("corpus.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _on_cluster_speakers(tracer, args, kwargs, result):
    corpus, config = _arg(args, kwargs, 0, "corpus"), _arg(args, kwargs, 1, "config")
    tracer.inputs["clustering.cluster_speakers"].append((tracer.phase, _corpus_key(corpus), repr(config)))


def _on_mine_tuples(tracer, args, kwargs, result):
    tracer.count("pair_miner.tuples_emitted", len(result))


def _on_pretrain(tracer, args, kwargs, result):
    tracer.count("trainer.pretrain_steps", _arg(args, kwargs, 1, "config").steps)


def _on_canonical_dumps(tracer, args, kwargs, result):
    tracer.count("serialize.bytes_out", len(result.encode("utf-8")))


ON_RESULT = {
    "corpus.load_corpus": _on_load_corpus,
    "clustering.cluster_speakers": _on_cluster_speakers,
    "pair_miner.mine_tuples": _on_mine_tuples,
    "trainer.pretrain": _on_pretrain,
    "serialize.canonical_dumps": _on_canonical_dumps,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: list[tuple[str, str, float]] = []  # (phase, name, value)
        self.inputs: dict[str, list] = defaultdict(list)
        self.phase = "setup-0"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every target that exists; a missing module or function is skipped."""
        if self._originals:
            return
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(f"emocluster.{module_name}")
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt(self, fn, parent: int):
        """fn run on a worker thread, with `parent` as the enclosing span."""
        def run(*args, **kwargs):
            stack = self._stack()
            saved = stack[:]
            stack[:] = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved
        return run

    def _wrap(self, fn, span_name: str):
        tracer = self
        on_result = ON_RESULT.get(span_name)

        def wrapper(*args, **kwargs):
            name = span_name
            if name == "cli.main":
                argv = _arg(args, kwargs, 0, "argv")
                name = "cli." + (argv[0] if argv else "main").replace("-", "_")
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            if name == "parallel.map_keyed":
                args = (tracer._adopt(args[0], sid),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, tracer.phase))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ recording

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.phase, name, value))

    @contextmanager
    def root(self, name: str):
        """A top-level span opened by the benchmark itself."""
        sid = next(self._ids)
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self.spans.append(Span(sid, None, name, threading.get_ident(), start, end, self.phase))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True))
                fh.write("\n")


# ---------------------------------------------------------------- analysis

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Summary:
    """Span and counter totals, each given per set-up plus pass."""

    def __init__(self, tracer: Tracer):
        phases = {s.phase for s in tracer.spans} | {p for p, _, _ in tracer.counters}
        runs = {
            kind: max(1, sum(p.startswith(kind + "-") for p in phases)) for kind in ("setup", "pass")
        }
        totals: dict[str, Counter] = {kind: Counter() for kind in runs}

        def add(phase, key, value):
            totals[phase.split("-", 1)[0]][key] += value

        selfs = self_times(tracer.spans)
        for s in tracer.spans:
            add(s.phase, ("busy", s.name), s.end - s.start)
            add(s.phase, ("calls", s.name), 1)
            add(s.phase, ("self", s.name), selfs[s.id])
            add(s.phase, ("layer_self", s.layer), selfs[s.id])
        for phase, name, value in tracer.counters:
            add(phase, ("count", name), value)
        per_run: dict[str, Counter] = defaultdict(Counter)
        for kind, counter in totals.items():
            for (what, name), value in counter.items():
                per_run[what][name] += value / runs[kind]
        self.busy, self.calls, self.self_by_name, self.self_by_layer, self.counts = (
            per_run[what] for what in ("busy", "calls", "self", "layer_self", "count")
        )
        self.useful = {name: len(set(keys)) / len(keys) for name, keys in tracer.inputs.items()}
        self.spans = sum(self.calls.values())


def layer_metrics(summary: Summary, workers: int, overhead_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    b, n, c = summary.busy, summary.calls, summary.counts
    pretrain_s = b["trainer.pretrain"]
    m = {
        "corpus.load_s": (b["corpus.load_corpus"], "s"),
        "corpus.save_s": (b["corpus.save_corpus"], "s"),
        "corpus.load_calls": (n["corpus.load_corpus"], "count"),
        "corpus.bytes_read": (c["corpus.bytes_read"], "bytes"),
        "corpus.generate_synthetic_s": (b["corpus.generate_synthetic"], "s"),
        "corpus.length_normalize_s": (b["corpus.length_normalize"], "s"),
        "clustering.cluster_speakers_s": (b["clustering.cluster_speakers"], "s"),
        "clustering.cluster_speakers_calls": (n["clustering.cluster_speakers"], "count"),
        "clustering.kmeans_s": (b["clustering.kmeans"], "s"),
        "clustering.kmeans_calls": (n["clustering.kmeans"], "count"),
        "clustering.useful_ratio": (summary.useful.get("clustering.cluster_speakers", 1.0), "ratio"),
        "parallel.workers": (workers, "count"),
        "parallel.map_keyed_s": (b["parallel.map_keyed"], "s"),
        "cluster_metrics.evaluate_run_s": (b["cluster_metrics.evaluate_run"], "s"),
        "cluster_metrics.silhouette_s": (b["cluster_metrics.silhouette"], "s"),
        "cluster_metrics.silhouette_calls": (n["cluster_metrics.silhouette"], "count"),
        "pair_miner.mine_tuples_s": (b["pair_miner.mine_tuples"], "s"),
        "pair_miner.mine_calls": (n["pair_miner.mine_tuples"], "count"),
        "pair_miner.tuples_emitted": (c["pair_miner.tuples_emitted"], "count"),
        "pair_miner.save_tuples_s": (b["pair_miner.save_tuples"], "s"),
        "objectives.ntxent_s": (b["objectives.ntxent_variant"], "s"),
        "objectives.ntxent_calls": (n["objectives.ntxent_variant"], "count"),
        "objectives.cross_entropy_s": (b["objectives.cross_entropy"], "s"),
        "nn_core.forward_s": (b["nn_core.forward"], "s"),
        "nn_core.backward_s": (b["nn_core.backward"], "s"),
        "nn_core.adamw_s": (b["nn_core.adamw_step"], "s"),
        "nn_core.adamw_calls": (n["nn_core.adamw_step"], "count"),
        "nn_core.checkpoint_io_s": (b["nn_core.save_checkpoint"], "s"),
        "trainer.pretrain_s": (pretrain_s, "s"),
        "trainer.pretrain_self_s": (summary.self_by_name["trainer.pretrain"], "s"),
        "trainer.train_ser_s": (b["trainer.train_ser"], "s"),
        "trainer.evaluate_uar_s": (b["trainer.evaluate_uar"], "s"),
        "trainer.steps_per_s": (c["trainer.pretrain_steps"] / pretrain_s if pretrain_s else 0.0, "1/s"),
        "serialize.canonical_dumps_s": (b["serialize.canonical_dumps"], "s"),
        "serialize.bytes_out": (c["serialize.bytes_out"], "bytes"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command.replace('-', '_')}_s"] = (b["cli." + command.replace("-", "_")], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (summary.self_by_layer[layer], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_pct"] = (100.0 * overhead_s / untraced_s if untraced_s else 0.0, "%")
    m["trace.spans"] = (summary.spans, "count")
    return m


def self_time_table(summary: Summary) -> str:
    """Per-layer self time per set-up plus pass, with each layer's share."""
    rows = sorted(summary.self_by_layer.items(), key=lambda kv: -kv[1])
    total = sum(v for _, v in rows) or 1.0
    lines = [f"{'layer':<16} {'self_s':>10} {'share':>7}"]
    lines += [f"{layer:<16} {value:>10.4f} {100 * value / total:>6.1f}%" for layer, value in rows]
    top = sorted(summary.self_by_name.items(), key=lambda kv: -kv[1])[:12]
    lines.append("")
    lines.append(f"{'span':<34} {'self_s':>10} {'share':>7} {'calls':>9}")
    lines += [
        f"{name:<34} {value:>10.4f} {100 * value / total:>6.1f}% {summary.calls[name]:>9.1f}"
        for name, value in top
    ]
    return "\n".join(lines)
