import os
import warnings

import numpy as np
import pytest

from emocluster import parallel
from emocluster.clustering import KMeansConfig, cluster_speakers, run_to_dict
from emocluster.corpus import EmbeddingRecord, SynthSpec, build_corpus, generate_synthetic, length_normalize
from emocluster.parallel import fork_map
from emocluster.trainer import TrainConfig, run_protocol


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
    with pytest.raises(ValueError, match="^x$"):
        fork_map(_fail_on_one, [0, 1, 2])


def test_nested_fork_map_runs_in_process(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    outer = fork_map(lambda _: (os.getpid(), fork_map(lambda _: os.getpid(), [0, 1])), [0, 1])
    assert [len(inner) for _, inner in outer] == [2, 2]
    for pid, inner in outer:
        assert pid != os.getpid()
        assert inner == [pid, pid]
    assert parallel._job is None
