import json

import numpy as np
import pytest

from emocluster.clustering import (
    KMeansConfig,
    _kmeanspp_init,
    _gram_sq_dists,
    _lloyd,
    _row_sq,
    _sq_dists_to_row,
    center_distances,
    cluster_speakers,
    kmeans,
    run_from_dict,
    run_to_dict,
)
from emocluster.corpus import SynthSpec, generate_synthetic, length_normalize
from emocluster.serialize import canonical_dumps
from oracles import exact_kmeanspp_init


def test_two_separated_pairs():
    points = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])
    assign, centers, inertia = kmeans(points, KMeansConfig(k=2, seed=0))
    assert len(set(assign.tolist())) == 2
    centers_sorted = centers[np.argsort(centers[:, 0])]
    assert np.allclose(centers_sorted, [[0.0, 0.05], [10.0, 10.05]], atol=1e-9)
    assert inertia == pytest.approx(0.01, abs=1e-9)


def test_k1_closed_form():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(40, 3))
    assign, centers, inertia = kmeans(points, KMeansConfig(k=1, seed=0))
    assert np.allclose(centers[0], points.mean(axis=0))
    assert inertia == pytest.approx(((points - points.mean(axis=0)) ** 2).sum())
    assert set(assign.tolist()) == {0}


def test_beats_random_assignment_baselines():
    rng = np.random.default_rng(123)
    points = rng.normal(size=(50, 4))
    _, centers, inertia = kmeans(points, KMeansConfig(k=3, seed=7))
    for _ in range(1000):
        labels = rng.integers(0, 3, size=50)
        if len(set(labels.tolist())) < 3:
            continue
        baseline_centers = np.stack([points[labels == c].mean(axis=0) for c in range(3)])
        diff = points - baseline_centers[labels]
        baseline = float((diff * diff).sum())
        assert inertia <= baseline + 1e-9


def test_assignment_consistency_invariant():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(60, 3))
    assign, centers, _ = kmeans(points, KMeansConfig(k=4, seed=2))
    dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(dists, axis=1), assign)


def test_centers_are_member_means():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(80, 2))
    assign, centers, _ = kmeans(points, KMeansConfig(k=3, seed=3, tol=1e-12, max_iters=500))
    for c in range(centers.shape[0]):
        members = points[assign == c]
        assert len(members)
        assert np.allclose(centers[c], members.mean(axis=0), atol=1e-6)


def test_determinism():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(30, 3))
    a = kmeans(points, KMeansConfig(k=3, seed=11))
    b = kmeans(points, KMeansConfig(k=3, seed=11))
    assert np.array_equal(a[0], b[0]) and np.allclose(a[1], b[1]) and a[2] == b[2]


def test_k_exceeding_distinct_points_degrades():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    assign, centers, inertia = kmeans(points, KMeansConfig(k=4, seed=0))
    assert centers.shape[0] == 2  # only 2 distinct points
    assert inertia == pytest.approx(0.0, abs=1e-12)


def test_inertia_nonnegative_and_best_of_restarts():
    from emocluster.clustering import _kmeanspp_init, _lloyd
    from emocluster.serialize import stable_seed

    rng = np.random.default_rng(21)
    points = rng.normal(size=(40, 2))
    config = KMeansConfig(k=3, seed=13, n_restarts=8)
    _, _, best = kmeans(points, config)
    assert best >= 0
    # recompute every individual restart with the same derived seeds
    singles = []
    for restart in range(config.n_restarts):
        restart_rng = np.random.default_rng(stable_seed(config.seed, "kmeans", restart))
        init = _kmeanspp_init(points, 3, restart_rng)
        singles.append(_lloyd(points, init, config.max_iters, config.tol)[2])
    assert best == pytest.approx(min(singles), abs=1e-12)
    assert all(best <= s + 1e-12 for s in singles)


def _normalized_corpus(seed=8, **overrides):
    kwargs = dict(
        n_speakers=4, n_emotions=4, utts_per_cell=20, dim=8,
        speaker_spread=1.0, emotion_offset_norm=1.0, within_noise=0.25, seed=seed,
    )
    kwargs.update(overrides)
    return length_normalize(generate_synthetic(SynthSpec(**kwargs)))


def test_cluster_speakers_recovers_structure():
    corpus = _normalized_corpus()
    run = cluster_speakers(corpus, KMeansConfig(k=4, seed=1))
    assert set(run.per_speaker) == set(corpus.speakers)
    for sc in run.per_speaker.values():
        assert sc.effective_k == 4
        assert sc.inertia >= 0
        assert len(sc.assignments) == 80


def test_cluster_speakers_warns_when_unnormalized():
    spec = SynthSpec(n_speakers=2, n_emotions=2, utts_per_cell=5, dim=4, seed=3)
    raw = generate_synthetic(spec)
    with pytest.warns(UserWarning, match="not length-normalized"):
        cluster_speakers(raw, KMeansConfig(k=2, seed=0))


def test_cluster_speakers_degenerate_speaker_warns():
    from emocluster.corpus import EmbeddingRecord, build_corpus

    recs = [
        EmbeddingRecord(f"u{i}", "tiny", None, np.eye(3)[i % 3].astype(float)) for i in range(3)
    ]
    corpus = build_corpus(recs)
    with pytest.warns(UserWarning, match="degrading"):
        run = cluster_speakers(corpus, KMeansConfig(k=4, seed=0))
    assert run.per_speaker["tiny"].effective_k <= 3


def test_cluster_speakers_warns_when_duplicates_shrink_k():
    from emocluster.corpus import EmbeddingRecord, build_corpus

    # 12 points but only 3 distinct vectors: k=5 runs with 3 centers
    recs = [EmbeddingRecord(f"u{i:02d}", "dup", None, np.eye(3)[i % 3].astype(float)) for i in range(12)]
    with pytest.warns(UserWarning, match=r"k=5 exceeds its 3 distinct points \(of 12\); degrading"):
        run = cluster_speakers(build_corpus(recs), KMeansConfig(k=5, seed=0))
    assert run.per_speaker["dup"].effective_k == 3


def test_speaker_order_independence():
    corpus = _normalized_corpus()
    run1 = cluster_speakers(corpus, KMeansConfig(k=4, seed=1))
    from emocluster.corpus import build_corpus

    reversed_corpus = build_corpus(list(reversed(corpus.records)))
    run2 = cluster_speakers(reversed_corpus, KMeansConfig(k=4, seed=1))
    for spk in run1.per_speaker:
        assert run1.per_speaker[spk].assignments == run2.per_speaker[spk].assignments
        assert np.allclose(run1.per_speaker[spk].centers, run2.per_speaker[spk].centers)


def test_center_distances_345():
    from emocluster.clustering import SpeakerClustering

    sc = SpeakerClustering(
        assignments={}, centers=np.array([[0.0, 0.0], [3.0, 4.0]]),
        inertia=0.0, effective_k=2, seed_used=0,
    )
    d = center_distances(sc)
    assert d.shape == (2, 2)
    assert d[0, 1] == pytest.approx(5.0)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_center_distances_matches_elementwise_recomputation():
    rng = np.random.default_rng(3)
    from emocluster.clustering import SpeakerClustering

    centers = rng.normal(size=(5, 4))
    sc = SpeakerClustering({}, centers, 0.0, 5, 0)
    d = center_distances(sc)
    for i in range(5):
        for j in range(5):
            assert d[i, j] == pytest.approx(float(np.linalg.norm(centers[i] - centers[j])), abs=1e-12)


def test_run_json_roundtrip():
    corpus = _normalized_corpus(n_speakers=2, utts_per_cell=6)
    run = cluster_speakers(corpus, KMeansConfig(k=3, seed=5))
    payload = run_to_dict(run)
    blob = canonical_dumps(payload)
    restored = run_from_dict(json.loads(blob))
    assert restored.config == run.config
    for spk in run.per_speaker:
        assert restored.per_speaker[spk].assignments == run.per_speaker[spk].assignments
        assert np.allclose(restored.per_speaker[spk].centers, run.per_speaker[spk].centers)
        assert restored.per_speaker[spk].inertia == pytest.approx(run.per_speaker[spk].inertia)


def test_config_validation():
    with pytest.raises(ValueError):
        KMeansConfig(k=0).validate()
    with pytest.raises(ValueError):
        KMeansConfig(n_restarts=0).validate()


def test_lloyd_inertia_monotone_within_restart():
    rng = np.random.default_rng(17)
    points = rng.normal(size=(120, 4))
    for restart_seed in range(5):
        init = _kmeanspp_init(points, 4, np.random.default_rng(restart_seed))
        # with tol=0 the loop never stops early, so max_iters=i yields the inertia after i iterations
        trace = [_lloyd(points, init, max_iters=i, tol=0.0)[2] for i in range(1, 101)]
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def _unit_rows(rng, n, dim):
    x = rng.normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_gram_sq_dists_nearest_center_matches_broadcast():
    rng = np.random.default_rng(31)
    for _ in range(20):
        points = _unit_rows(rng, 300, 48)
        centers = 0.8 * _unit_rows(rng, 12, 48)
        diff = points[:, None, :] - centers[None, :, :]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        gram = _gram_sq_dists(points, _row_sq(points), centers)
        assert gram.min() >= 0.0
        assert np.allclose(gram, exact, rtol=1e-12, atol=1e-14)
        picked = exact[np.arange(len(points)), np.argmin(gram, axis=1)]
        assert np.all(picked <= exact.min(axis=1) * (1.0 + 1e-12))


def test_lloyd_inertia_is_direct_residual_sum():
    rng = np.random.default_rng(32)
    points = _unit_rows(rng, 200, 24)
    for restart_seed in range(5):
        init = _kmeanspp_init(points, 6, np.random.default_rng(restart_seed))
        assign, centers, inertia = _lloyd(points, init, max_iters=300, tol=1e-6)
        diff = points[:, None, :] - centers[None, :, :]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        assert inertia == pytest.approx(float(exact[np.arange(len(points)), assign].sum()), rel=1e-9)
        assert np.all(exact[np.arange(len(points)), assign] <= exact.min(axis=1) * (1.0 + 1e-12))


def _lloyd_repair_per_cluster(points, init_centers, max_iters, tol):
    """_lloyd with the farthest-point ranking recomputed for every empty cluster."""
    centers = init_centers.copy()
    k = centers.shape[0]
    assign = np.argmin(_gram_sq_dists(points, _row_sq(points), centers), axis=1)
    for _ in range(max_iters):
        new_centers = centers.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
        counts = np.bincount(assign, minlength=k)
        taken = set()
        for c in np.flatnonzero(counts == 0):
            dist_own = np.einsum("ij,ij->i", points - new_centers[assign], points - new_centers[assign])
            order = np.argsort(-dist_own, kind="stable")
            pick = next(int(i) for i in order if int(i) not in taken)
            taken.add(pick)
            new_centers[c] = points[pick]
            assign[pick] = c
        shift = np.linalg.norm(new_centers - centers, axis=1)
        converged = bool(np.all(shift < tol * (1.0 + np.linalg.norm(centers, axis=1))))
        centers = new_centers
        assign = np.argmin(_gram_sq_dists(points, _row_sq(points), centers), axis=1)
        if converged:
            break
    residual = points - centers[assign]
    return assign, centers, float(np.einsum("ij,ij->i", residual, residual).sum())


@pytest.mark.parametrize("duplicates", [1, 3])
def test_empty_cluster_repair_fills_every_cluster(duplicates):
    rng = np.random.default_rng(33)
    points = _unit_rows(rng, 90, 5)
    # repeating the first center leaves its copies empty after the first assignment
    init = np.concatenate([np.repeat(points[:1], duplicates + 1, axis=0), points[1:4]])
    k = len(init)
    assert np.sum(np.bincount(np.argmin(_gram_sq_dists(points, _row_sq(points), init), axis=1), minlength=k) == 0) == duplicates
    for max_iters in (1, 2, 300):
        assign, centers, inertia = _lloyd(points, init, max_iters=max_iters, tol=1e-6)
        assert np.all(np.bincount(assign, minlength=k) > 0)
        ref = _lloyd_repair_per_cluster(points, init, max_iters, 1e-6)
        assert np.array_equal(assign, ref[0]) and np.array_equal(centers, ref[1]) and inertia == ref[2]


def _seeding_sets():
    rng = np.random.default_rng(34)
    distinct = _unit_rows(rng, 12, 16)
    scaled = _unit_rows(rng, 300, 24) * np.logspace(-3, 3, 300)[rng.permutation(300), None]
    return [
        pytest.param(_unit_rows(rng, 96, 48), 20, id="unit_96x48"),
        pytest.param(_unit_rows(rng, 1000, 192), 20, id="unit_1000x192"),
        # k = the distinct count: every distinct point becomes a center
        pytest.param(distinct[rng.integers(0, 12, size=90)], 12, id="duplicates"),
        pytest.param(scaled, 20, id="norms_1e-3_to_1e3"),
    ]


@pytest.mark.parametrize("points, k", _seeding_sets())
def test_kmeanspp_init_matches_exact_oracle(points, k):
    # a point and its duplicates weigh exactly 0 once it is a center
    points_sq = np.einsum("ij,ij->i", points, points)
    for i in range(0, len(points), 7):
        d = _sq_dists_to_row(points, points_sq, i)
        assert np.array_equal(d == 0.0, (points == points[i]).all(axis=1))
    for seed in range(5):
        centers = _kmeanspp_init(points, k, np.random.default_rng(seed))
        assert np.array_equal(centers, exact_kmeanspp_init(points, k, np.random.default_rng(seed)))
        # a chosen point weighs exactly 0 afterwards, so no center repeats
        assert len(np.unique(centers, axis=0)) == k


def test_inverse_cdf_draw_is_generator_choice():
    rng = np.random.default_rng(35)
    for trial in range(300):
        n = int(rng.integers(1, 400))
        w = rng.random(n) ** 4 * 10.0 ** rng.uniform(-6, 6)
        w[rng.random(n) < 0.3] = 0.0
        if w.sum() <= 0.0:
            continue
        via_choice, via_cdf = np.random.default_rng(trial), np.random.default_rng(trial)
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        assert int(via_choice.choice(n, p=w / w.sum())) == int(cdf.searchsorted(via_cdf.random(), side="right"))
        assert via_choice.random() == via_cdf.random()


@pytest.mark.parametrize("dim", [1, 2, 48, 192])
@pytest.mark.parametrize("repair", [False, True])
def test_lloyd_centers_are_masked_means_bit_for_bit(dim, repair):
    rng = np.random.default_rng(36 + dim)
    points = rng.normal(size=(240, dim))
    init = points[rng.choice(240, size=8, replace=False)]
    if repair:
        # a repeated center stays empty after the first assignment
        init = np.concatenate([init[:1], init])
        assert np.any(np.bincount(np.argmin(_gram_sq_dists(points, _row_sq(points), init), axis=1), minlength=len(init)) == 0)
    for max_iters in (1, 2, 300):
        assign, centers, inertia = _lloyd(points, init, max_iters=max_iters, tol=1e-6)
        ref = _lloyd_repair_per_cluster(points, init, max_iters, 1e-6)
        assert np.array_equal(assign, ref[0]) and np.array_equal(centers, ref[1]) and inertia == ref[2]
