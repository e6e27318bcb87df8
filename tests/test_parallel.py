import copy
import errno
import os
import re
import select
import signal
import threading
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from emocluster import parallel, trainer
from emocluster.cluster_metrics import evaluate_run, report_to_dict
from emocluster.clustering import KMeansConfig, cluster_speakers, run_to_dict
from emocluster.corpus import Corpus, EmbeddingRecord, SynthSpec, build_corpus, generate_synthetic, length_normalize
from emocluster.pair_miner import MiningConfig, mine_tuples
from emocluster.parallel import fork_map
from emocluster.serialize import stable_seed
from emocluster.trainer import TrainConfig, pretrain, run_protocol
from oracles import tuple_pool

_LANES = select.PIPE_BUF // 4  # fork_map's lane count: job i runs on lane i % _LANES

def _with_workers(monkeypatch, n, fn):
    monkeypatch.setattr(parallel, "worker_count", lambda: n)
    return fn()


def test_worker_count_is_the_affinity_mask():
    assert parallel.worker_count() == len(os.sched_getaffinity(0))


def test_cluster_speakers_same_for_any_worker_count(monkeypatch):
    corpus = length_normalize(generate_synthetic(SynthSpec(n_speakers=5, n_emotions=3, utts_per_cell=6, dim=6, seed=4)))
    config = KMeansConfig(k=3, seed=2)
    runs = [_with_workers(monkeypatch, n, lambda: run_to_dict(cluster_speakers(corpus, config))) for n in (1, 2)]
    assert runs[0] == runs[1]
    assert list(runs[1]["per_speaker"]) == list(corpus.speakers)


def _evaluate(run, corpus):
    """evaluate_run's report dict and warnings, or its error and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = report_to_dict(evaluate_run(run, corpus))
        except ValueError as exc:
            outcome = f"ValueError: {exc}"
    return outcome, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def test_evaluate_run_same_for_any_worker_count(monkeypatch):
    corpus = length_normalize(generate_synthetic(SynthSpec(n_speakers=4, n_emotions=3, utts_per_cell=6, dim=6, seed=4)))
    run = cluster_speakers(corpus, KMeansConfig(k=3, seed=2))
    a, b, c, _ = sorted(run.per_speaker)
    one_cluster = {u for u, cluster in run.per_speaker[c].assignments.items() if cluster == 0}
    # a loses two labels, b keeps one (dropped), c keeps only cluster 0's (no silhouette)
    keep = {a: set(sorted(run.per_speaker[a].assignments)[2:]), b: {min(run.per_speaker[b].assignments)}, c: one_cluster}
    emotions = [e if spk not in keep or u in keep[spk] else None
                for u, spk, e in zip(corpus.utt_ids, corpus.spk_ids, corpus.emotions)]
    corpus = Corpus(corpus.vectors, corpus.utt_ids, corpus.spk_ids, emotions)
    outcomes = [_with_workers(monkeypatch, n, lambda: _evaluate(run, corpus)) for n in (1, 2)]
    assert outcomes[0] == outcomes[1]
    report, caught = outcomes[0]
    assert sorted(report["per_speaker"]) == [a, c, sorted(run.per_speaker)[3]]
    assert report["per_speaker"][c]["silhouette"] is None
    size = {spk: len(sc.assignments) for spk, sc in run.per_speaker.items()}
    assert [message for _, message, _, _ in caught] == [
        f"speaker {a!r}: 2 utterance(s) without an emotion label excluded",
        f"speaker {b!r}: {size[b] - 1} utterance(s) without an emotion label excluded",
        f"speaker {b!r} has < 2 labeled utterances; dropped",
        f"speaker {c!r}: {size[c] - len(one_cluster)} utterance(s) without an emotion label excluded",
        f"speaker {c!r}: single cluster in labeled subset; silhouette omitted",
    ]

    bad = copy.deepcopy(run)
    bad.per_speaker[c].assignments[min(one_cluster)] = 7
    outcomes = [_with_workers(monkeypatch, n, lambda: _evaluate(bad, corpus)) for n in (1, 2)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].startswith(f"ValueError: speaker {c!r}: utterance {min(one_cluster)!r} has cluster 7")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_protocol_same_for_any_worker_count(monkeypatch):
    corpus = generate_synthetic(SynthSpec(n_speakers=8, n_emotions=3, utts_per_cell=6, dim=8, seed=6))
    config = TrainConfig(
        steps=20, batch_size=8, epochs_ser=3, n_clusters_N=3, seeds=(0, 1), trunk_hidden=8, contrastive_out=8, seed=1,
    )
    reports = [
        _with_workers(monkeypatch, n, lambda: run_protocol(corpus, config, modes=["none", "contrastive"], label_fraction=0.5))
        for n in (1, 2)
    ]
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_protocol_pool_equals_mined_tuples(monkeypatch, workers):
    # odd speakers hold only 3 distinct vectors, so their windows are narrower
    # than the others' and the pool pads them; the records run backwards, so
    # the corpus lists its speakers out of sorted order
    base = generate_synthetic(SynthSpec(n_speakers=8, n_emotions=3, utts_per_cell=6, dim=8, seed=6))
    corners = np.random.default_rng(0).normal(size=(3, 8))
    recs = [
        EmbeddingRecord(r.utt_id, r.spk_id, r.emotion, corners[i % 3] if int(r.spk_id[-1]) % 2 else r.vec)
        for i, r in enumerate(base.records)
    ][::-1]
    config = TrainConfig(
        steps=20, batch_size=8, epochs_ser=3, n_clusters_N=8, seeds=(0, 1), trunk_hidden=8, contrastive_out=8,
        seed=1, pretrain_speaker_fraction=0.5, split_fractions=(0.5, 0.25, 0.25),
    )
    built = []
    tuple_pools = trainer._tuple_pools

    def capture(corpus, n_clusters, seeds):
        built.append((corpus, n_clusters, seeds, tuple_pools(corpus, n_clusters, seeds)))
        return built[-1][-1]

    monkeypatch.setattr(trainer, "_tuple_pools", capture)
    _with_workers(monkeypatch, workers, lambda: run_protocol(build_corpus(recs), config, modes=["contrastive"]))
    [(corpus, n_clusters, seeds, pools)] = built
    assert len(pools) == len(seeds) == 2
    widths = set()
    for seed, pool in zip(seeds, pools):
        run = cluster_speakers(corpus, KMeansConfig(k=n_clusters, seed=stable_seed(seed, "pretrain_cluster")))
        expected = tuple_pool(mine_tuples(run, corpus, MiningConfig(n_clusters_N=n_clusters, seed=seed)), corpus)
        for got, want in zip(pool, expected, strict=True):
            assert got.shape == want.shape and np.array_equal(got, want)
        widths |= set(pool[3].sum(axis=1).tolist())
    assert len(widths) > 1


def _one_vector_per_speaker():
    return build_corpus([
        EmbeddingRecord(f"{spk}_{i}", spk, ("happy", "sad")[i % 2], np.eye(6)[s])
        for s, spk in enumerate("abcdef") for i in range(6)
    ])


@pytest.mark.parametrize("workers", [1, 2])
def test_no_mineable_tuples_raise_after_the_degrade_warnings(monkeypatch, workers):
    # one distinct vector per speaker: k-means degrades to one cluster, so no
    # anchor has a negative; each (seed, speaker)'s warning still arrives, in order
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    corpus = _one_vector_per_speaker()
    config = TrainConfig(steps=5, n_clusters_N=2, seeds=(0, 1), trunk_hidden=4, contrastive_out=4, seed=1)
    for call, n_seeds in ((lambda: pretrain(corpus, config), 1), (lambda: run_protocol(corpus, config), 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^no mineable tuples: every anchor was skipped$"):
                call()
        degrading = [str(w.message).split()[1] for w in caught if "degrading" in str(w.message)]
        assert len(degrading) % n_seeds == 0 and degrading
        assert degrading == sorted(set(degrading)) * n_seeds


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_protocol_rows_follow_the_given_modes(monkeypatch):
    corpus = generate_synthetic(SynthSpec(n_speakers=8, n_emotions=3, utts_per_cell=6, dim=8, seed=6))
    config = TrainConfig(
        steps=20, batch_size=8, epochs_ser=3, n_clusters_N=3, seeds=(0, 1), trunk_hidden=8, contrastive_out=8, seed=1,
    )
    modes = ["mtl", "none", "contrastive"]
    dispatched = []
    cells = trainer.fork_map

    def recording(fn, items):
        dispatched.append(items)
        return cells(fn, items)

    monkeypatch.setattr(trainer, "fork_map", recording)
    reports = [_with_workers(monkeypatch, n, lambda: run_protocol(corpus, config, modes=modes)) for n in (1, 2)]
    assert reports[0] == reports[1]
    assert [row["mode"] for row in reports[0]["rows"]] == modes
    # the costliest cells go out first: mode by descending MODES index, then seed
    assert dispatched[-1] == [(m, s) for m in ("mtl", "contrastive", "none") for s in (0, 1)]
    for row in reports[0]["rows"]:
        assert run_protocol(corpus, config, modes=[row["mode"]])["rows"] == [row]


def test_worker_warnings_reach_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    recs = [EmbeddingRecord(f"{spk}{i}", spk, None, np.eye(3)[i % 2]) for spk in ("a", "b") for i in range(4)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = cluster_speakers(build_corpus(recs), KMeansConfig(k=3, seed=0))
    degrading = [(w.category, str(w.message).split()[1]) for w in caught if "degrading" in str(w.message)]
    assert degrading == [(UserWarning, "'a':"), (UserWarning, "'b':")]
    assert [sc.effective_k for sc in run.per_speaker.values()] == [2, 2]


def _fail_on_one(x):
    if x == 1:
        raise ValueError("x")
    return x


def test_job_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with pytest.raises(ValueError, match="^x$") as raised:
        fork_map(_fail_on_one, [0, 1, 2])
    # the worker's traceback is the cause, down to the line that raised
    assert 'raise ValueError("x")' in str(raised.value.__cause__)


def test_nested_fork_map_runs_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    outer = fork_map(lambda _: (os.getpid(), fork_map(lambda _: os.getpid(), [0, 1])), [0, 1])
    assert [len(inner) for _, inner in outer] == [2, 2]
    for pid, inner in outer:
        assert pid != os.getpid()
        assert inner == [pid, pid]
    assert parallel._job is None


def _children() -> list[str]:
    """Pids of the live or unreaped children this thread forked."""
    with open(f"/proc/self/task/{threading.get_native_id()}/children") as fh:
        return fh.read().split()


@contextmanager
def _deadline(seconds):
    """Fail a fork_map that hangs instead of hanging the test run."""
    def expire(signum, frame):
        raise TimeoutError(f"fork_map still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_more_jobs_than_the_task_pipe_holds(monkeypatch):
    # 20 000 jobs: each lane runs 19 or 20 of them; more workers than CPUs share the pipe
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)
    items = list(range(20_000))
    with _deadline(60):
        assert fork_map(lambda x: -x, items) == [-x for x in items]
    assert _children() == []


def test_a_worker_that_dies_names_its_lost_job(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with _deadline(60), pytest.raises(RuntimeError, match=r"^fork_map: .* job\(s\) \[1\]$"):
        fork_map(lambda x: os._exit(3) if x == 1 else x, [0, 1, 2, 3])
    assert _children() == []
    # every worker dead with lanes still unread: all their jobs are lost
    with _deadline(60), pytest.raises(RuntimeError, match=r"job\(s\) \[0, 1, 2, 3, "):
        fork_map(lambda x: os._exit(3), list(range(20_000)))
    assert _children() == []


def _warn_then_fail(x):
    warnings.warn(f"job {x}", UserWarning)
    if x == 2:
        time.sleep(0.3)  # job 4 fails first in time, job 2 first in item order
    if x in (2, 4):
        raise ValueError(f"job {x} failed")
    return x


def test_the_first_failing_job_in_item_order_raises_after_earlier_warnings(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with warnings.catch_warnings(record=True) as caught, _deadline(60):
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^job 2 failed$"):
            fork_map(_warn_then_fail, list(range(6)))
    assert [str(w.message) for w in caught] == ["job 0", "job 1", "job 2"]
    assert _children() == []
    assert parallel._job is None


def test_an_unpicklable_result_names_its_job(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with _deadline(60), pytest.raises(RuntimeError, match="^fork_map job 1: cannot pickle its result"):
        fork_map(lambda x: threading.Lock() if x == 1 else x, [0, 1, 2])
    assert _children() == []


def test_an_interrupt_leaves_no_worker(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    parent = os.getpid()

    def interrupt(x):
        if x == 0:  # at once, so it may arrive while the parent still forks
            os.kill(parent, signal.SIGINT)
        time.sleep(30)

    with _deadline(60), pytest.raises(KeyboardInterrupt):
        fork_map(interrupt, [0, 1])
    assert _children() == []


def _warn(x):
    warnings.warn(f"job {x}", UserWarning)
    return x


@pytest.mark.parametrize("n", [_LANES + 1, 3 * _LANES + 5])
def test_jobs_past_the_first_lane_round_come_back_in_item_order(monkeypatch, n):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    items = list(range(n))
    with warnings.catch_warnings(record=True) as caught, _deadline(60):
        warnings.simplefilter("always")
        assert fork_map(_warn, items) == items
    assert [str(w.message) for w in caught] == [f"job {x}" for x in items]
    assert _children() == []


def _fail_from_the_second_lane_round(x):
    warnings.warn(f"job {x}", UserWarning)
    if x == _LANES:
        time.sleep(0.3)  # lane 1's second job fails first in time, lane 0's first in item order
    if x >= _LANES:
        raise ValueError(f"job {x} failed")
    return x


def test_the_first_failing_job_of_a_later_lane_round_raises_after_earlier_warnings(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    with warnings.catch_warnings(record=True) as caught, _deadline(60):
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^job {_LANES} failed$"):
            fork_map(_fail_from_the_second_lane_round, list(range(_LANES + 2)))
    assert [str(w.message) for w in caught] == [f"job {x}" for x in range(_LANES + 1)]
    assert _children() == []
    assert parallel._job is None


def test_a_worker_that_dies_mid_lane_names_the_rest_of_its_lane(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    n = 3 * _LANES + 5
    lost = [_LANES + 1, 2 * _LANES + 1, 3 * _LANES + 1]  # lane 1 after its first job
    with _deadline(60), pytest.raises(RuntimeError, match=rf"job\(s\) {re.escape(str(lost))}$"):
        fork_map(lambda x: os._exit(3) if x == _LANES + 1 else x, list(range(n)))
    assert _children() == []


def _fds() -> list[str]:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"), key=int)


def test_no_descriptor_outlives_a_call(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    before = _fds()
    with _deadline(60):
        assert fork_map(lambda x: -x, [0, 1, 2]) == [0, -1, -2]
        assert _fds() == before
        with pytest.raises(ValueError, match="^x$"):
            fork_map(_fail_on_one, [0, 1, 2])
        assert _fds() == before
        with pytest.raises(RuntimeError, match=r"job\(s\) \[1\]$"):
            fork_map(lambda x: os._exit(3) if x == 1 else x, [0, 1, 2, 3])
        assert _fds() == before


def test_a_call_that_fails_before_forking_leaves_later_calls_parallel(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    monkeypatch.setattr(parallel, "_job", None)  # so no later test runs in-process should this one fail
    failures, pipe = [OSError(errno.EMFILE, "Too many open files")], os.pipe

    def pipe_failing_once():
        if failures:
            raise failures.pop()
        return pipe()

    monkeypatch.setattr(os, "pipe", pipe_failing_once)
    with pytest.raises(OSError, match="Too many open files"):
        fork_map(lambda _: os.getpid(), [0, 1])
    assert parallel._job is None
    with _deadline(60):
        pids = fork_map(lambda _: os.getpid(), [0, 1])
    assert os.getpid() not in pids
    assert _children() == []
