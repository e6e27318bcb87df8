import numpy as np
import pytest

from emocluster.clustering import KMeansConfig, _kmeanspp_init, _lloyd, cluster_speakers
from emocluster.corpus import SynthSpec, generate_synthetic, length_normalize
from emocluster.parallel import THREADS_ENV, map_keyed, worker_count


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    assert worker_count() == 3
    monkeypatch.delenv(THREADS_ENV)
    assert worker_count() >= 1


def test_worker_count_rejects_garbage(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "zero")
    with pytest.raises(ValueError, match=THREADS_ENV):
        worker_count()
    monkeypatch.setenv(THREADS_ENV, "0")
    with pytest.raises(ValueError, match=THREADS_ENV):
        worker_count()


def test_map_keyed_matches_serial():
    items = {f"k{i}": i for i in range(10)}
    fn = lambda key, value: (key, value * value)
    assert map_keyed(fn, items, max_workers=1) == map_keyed(fn, items, max_workers=4)


def test_cluster_speakers_parallel_equals_serial():
    spec = SynthSpec(n_speakers=6, n_emotions=3, utts_per_cell=10, dim=6, seed=2)
    corpus = length_normalize(generate_synthetic(spec))
    serial = cluster_speakers(corpus, KMeansConfig(k=3, seed=4), max_workers=1)
    parallel = cluster_speakers(corpus, KMeansConfig(k=3, seed=4), max_workers=4)
    for spk in serial.per_speaker:
        assert serial.per_speaker[spk].assignments == parallel.per_speaker[spk].assignments
        assert np.array_equal(serial.per_speaker[spk].centers, parallel.per_speaker[spk].centers)
        assert serial.per_speaker[spk].inertia == parallel.per_speaker[spk].inertia


def test_lloyd_inertia_monotone_within_restart():
    rng = np.random.default_rng(17)
    points = rng.normal(size=(120, 4))
    for restart_seed in range(5):
        init = _kmeanspp_init(points, 4, np.random.default_rng(restart_seed))
        # with tol=0 the loop never stops early, so max_iters=i yields the inertia after i iterations
        trace = [_lloyd(points, init, max_iters=i, tol=0.0)[2] for i in range(1, 101)]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
