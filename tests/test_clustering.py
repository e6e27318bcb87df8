import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster import clustering
from emocluster.cli import main
from emocluster.clustering import (
    KMEANS_BLOCK,
    KMeansConfig,
    _kmeanspp_init,
    _gram_sq_dists,
    _lloyd,
    _row_sq,
    _sq_dists_to_rows,
    center_distances,
    cluster_speakers,
    kmeans,
    run_from_dict,
    run_to_dict,
    speaker_rows,
)
from emocluster.cluster_metrics import evaluate_run
from emocluster.corpus import Corpus, SynthSpec, generate_synthetic, length_normalize, load_corpus
from emocluster.pair_miner import MiningConfig, mine_tuples
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


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dim=st.sampled_from([1, 2, 3, 8]))
@settings(max_examples=80, deadline=None)
def test_degrade_counts_distinct_points_as_np_unique(seed, n, dim):
    # rows of tenths with repeats and zeros of both signs; with k = n, kmeans
    # keeps one center per distinct row, and np.unique takes -0.0 == 0.0
    rng = np.random.default_rng(seed)
    points = np.round(rng.uniform(-0.3, 0.3, size=(n, dim)), 1)[rng.integers(0, n, size=n)]
    zeros = rng.random(points.shape) < 0.25
    points[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
    _, centers, _ = kmeans(points, KMeansConfig(k=n, n_restarts=1, max_iters=1))
    assert len(centers) == len(np.unique(points, axis=0))


def test_inertia_nonnegative_and_best_of_restarts():
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
        init = _kmeanspp_init(points, 3, [restart_rng])
        singles.append(_lloyd(points, init, config.max_iters, config.tol)[2][0])
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
    corpus = Corpus(np.eye(3), [f"u{i}" for i in range(3)], ["tiny"] * 3, [None] * 3)
    with pytest.warns(UserWarning, match="degrading"):
        run = cluster_speakers(corpus, KMeansConfig(k=4, seed=0))
    assert run.per_speaker["tiny"].effective_k <= 3


def test_cluster_speakers_warns_when_duplicates_shrink_k():
    # 12 points but only 3 distinct vectors: k=5 runs with 3 centers
    corpus = Corpus(np.eye(3)[np.arange(12) % 3], [f"u{i:02d}" for i in range(12)], ["dup"] * 12, [None] * 12)
    with pytest.warns(UserWarning, match=r"k=5 exceeds its 3 distinct points \(of 12\); degrading"):
        run = cluster_speakers(corpus, KMeansConfig(k=5, seed=0))
    assert run.per_speaker["dup"].effective_k == 3


def test_speaker_order_independence():
    corpus = _normalized_corpus()
    run1 = cluster_speakers(corpus, KMeansConfig(k=4, seed=1))
    reversed_corpus = corpus.take(np.arange(len(corpus))[::-1])
    run2 = cluster_speakers(reversed_corpus, KMeansConfig(k=4, seed=1))
    for spk in run1.per_speaker:
        assert run1.per_speaker[spk].assignments == run2.per_speaker[spk].assignments
        assert np.allclose(run1.per_speaker[spk].centers, run2.per_speaker[spk].centers)


def test_center_distances_345():
    from emocluster.clustering import SpeakerClustering

    sc = SpeakerClustering(
        assignments={}, centers=np.array([[0.0, 0.0], [3.0, 4.0]]),
        inertia=0.0,
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
    sc = SpeakerClustering({}, centers, 0.0)
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
        KMeansConfig(k=0)
    with pytest.raises(ValueError):
        KMeansConfig(n_restarts=0)


def test_lloyd_inertia_monotone_within_restart():
    rng = np.random.default_rng(17)
    points = rng.normal(size=(120, 4))
    for restart_seed in range(5):
        init = _kmeanspp_init(points, 4, [np.random.default_rng(restart_seed)])
        # with tol=0 the loop never stops early, so max_iters=i yields the inertia after i iterations
        trace = [_lloyd(points, init, max_iters=i, tol=0.0)[2][0] for i in range(1, 101)]
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
        init = _kmeanspp_init(points, 6, [np.random.default_rng(restart_seed)])
        (assign,), (centers,), (inertia,) = _lloyd(points, init, max_iters=300, tol=1e-6)
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
        (assign,), (centers,), (inertia,) = _lloyd(points, init[None], max_iters=max_iters, tol=1e-6)
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
    rows = np.arange(0, len(points), 7)
    for i, d in zip(rows, _sq_dists_to_rows(points, points_sq, rows)):
        assert np.array_equal(d == 0.0, (points == points[i]).all(axis=1))
    # five restarts seeded in lockstep, each checked against its own exact run
    stacked = _kmeanspp_init(points, k, [np.random.default_rng(seed) for seed in range(5)])
    for seed, centers in enumerate(stacked):
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
        (assign,), (centers,), (inertia,) = _lloyd(points, init[None], max_iters=max_iters, tol=1e-6)
        ref = _lloyd_repair_per_cluster(points, init, max_iters, 1e-6)
        assert np.array_equal(assign, ref[0]) and np.array_equal(centers, ref[1]) and inertia == ref[2]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 60),
    dim=st.sampled_from([1, 2, 5, 48]),
    k=st.integers(2, 6),
    n_seeded=st.integers(1, 6),
    max_iters=st.sampled_from([1, 2, 3, 300]),
    tol=st.sampled_from([0.0, 1e-6, 1e-2]),
)
@settings(max_examples=60, deadline=None)
def test_lockstep_restarts_equal_lone_restarts(seed, n, dim, k, n_seeded, max_iters, tol):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    if rng.random() < 0.5:
        points = points[rng.integers(0, n, size=n)]  # duplicates
    k = min(k, len(np.unique(points, axis=0)))
    rngs = lambda: [np.random.default_rng([seed, r]) for r in range(n_seeded)]
    seeded = _kmeanspp_init(points, k, rngs())
    for centers, lone_rng in zip(seeded, rngs()):
        assert np.array_equal(centers, _kmeanspp_init(points, k, [lone_rng])[0])
    # a repeated center stays empty after the first assignment, so the first and
    # the last restart repair; the member means of a converged run converge in
    # one iteration when tol > 0, the k-means++ restarts later
    repeated = seeded[:, [0, *range(k - 1)]]
    assign = _lloyd(points, seeded[:1], 300, 1e-6)[0][0]
    means = np.stack([points[assign == c].mean(axis=0) if np.any(assign == c) else seeded[0][c] for c in range(k)])
    inits = np.concatenate([repeated[:1], means[None], seeded, repeated[-1:]])
    stacked = _lloyd(points, inits, max_iters, tol)
    for r, init in enumerate(inits):
        lone = _lloyd(points, init[None], max_iters, tol)
        for got, want in zip(stacked, lone):
            assert np.array_equal(got[r], want[0])


def test_restart_blocks_do_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(38)
    points = _unit_rows(rng, 150, 12)
    config = KMeansConfig(k=7, n_restarts=11, seed=4)
    whole = kmeans(points, config)
    for floats in (1, 150 * 7 * 3):  # one restart per block, and three
        monkeypatch.setattr(clustering, "KMEANS_BLOCK", floats)
        blocked = kmeans(points, config)
        assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1]) and blocked[2] == whole[2]


def test_restart_memory_is_bounded_by_the_block():
    # 200 restarts' (n, 200 * k) distances alone would take 64 MB
    points = _unit_rows(np.random.default_rng(39), 2000, 192)
    tracemalloc.start()
    try:
        kmeans(points, KMeansConfig(k=20, n_restarts=200, max_iters=3, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * KMEANS_BLOCK * 8


def _write_degenerate_corpus(path):
    # speaker "dup" has 3 distinct vectors under 9 utterances, so k=4 degrades;
    # speaker "rat" has 12 distinct rational vectors
    basis = [[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.8, 0.0, 0.6]]
    rows = [{"utt_id": f"dup{i:02d}", "spk_id": "dup", "emotion": f"e{i % 2}", "vec": basis[i % 3]} for i in range(9)]
    rows += [
        {"utt_id": f"rat{i:02d}", "spk_id": "rat", "emotion": f"e{i % 3}",
         "vec": [float(i % 5 - 2), (i * 7 % 11) / 11, 1.0 + i / 8]}
        for i in range(12)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _write_synthetic_corpus(path):
    argv = ["gen-synth", "--n-speakers", "3", "--n-emotions", "3", "--utts-per-cell", "5", "--dim", "6", "--seed", "3"]
    assert main([*argv, "--out", str(path)]) == 0


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "write_corpus, flags, digest",
    [
        (_write_synthetic_corpus, ["--k", "4", "--seed", "11"],
         "832bdf133a1e66c7c016b5dc3b3c847ce64cacd9a402ab93d8ae53bcec8c4b6f"),
        (_write_degenerate_corpus, ["--k", "4", "--restarts", "3", "--seed", "2"],
         "f952a722c52410c497661e83e5998e30e5804400585365db44419e7baee711e3"),
    ],
    ids=["synthetic", "degenerate"],
)
def test_cluster_run_file_is_pinned(tmp_path, write_corpus, flags, digest):
    # the run files that one Lloyd run per restart wrote, less the effective_k and seed_used they once stored
    corpus, run = tmp_path / "corpus.jsonl", tmp_path / "run.json"
    write_corpus(corpus)
    assert main(["cluster", "--corpus", str(corpus), *flags, "--out", str(run)]) == 0
    assert hashlib.sha256(run.read_bytes()).hexdigest() == digest


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_effective_k_counts_the_centers_with_a_member(tmp_path):
    # the degenerate corpus's "dup" has 3 distinct vectors, so k = 4 degrades to 3
    path = tmp_path / "corpus.jsonl"
    _write_degenerate_corpus(path)
    corpus = length_normalize(load_corpus(str(path), "jsonl"))
    run = cluster_speakers(corpus, KMeansConfig(k=4, n_restarts=3, seed=2))
    for spk, sc in run.per_speaker.items():
        assign = np.array([sc.assignments[u] for u in sorted(sc.assignments)])
        assert sc.effective_k == np.count_nonzero(np.bincount(assign))
    assert run.per_speaker["dup"].effective_k == 3 and run.per_speaker["rat"].effective_k == 4


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "write_corpus, flags, digests",
    [
        (_write_synthetic_corpus, ["--k", "4", "--seed", "11"],
         ("a8464a3919e6b7ad7a3e98e8640d3c8b851812de03e9eab04741e07b4b1c678e",
          "f144a82b1594b4a447151dcefce85b731722a32cdbf4c47abb2579b0a71b7723")),
        (_write_degenerate_corpus, ["--k", "4", "--restarts", "3", "--seed", "2"],
         ("9d3d4829246281bbe136dc49897094b7a0ae321aeaf1b245480a9500d177be3d",
          "12fcfc2d764dc8335cdca7bf7471d237cfc9c331397e59f6b381d60bfec29b0f")),
    ],
    ids=["synthetic", "degenerate"],
)
def test_eval_clusters_report_is_pinned(tmp_path, write_corpus, flags, digests):
    # the report and table eval-clusters wrote while each reader of a run kept its own checks
    corpus, run, report, table = (tmp_path / name for name in ("corpus.jsonl", "run.json", "report.json", "report.txt"))
    write_corpus(corpus)
    assert main(["cluster", "--corpus", str(corpus), *flags, "--out", str(run)]) == 0
    argv = ["eval-clusters", "--corpus", str(corpus), "--run", str(run), "--out", str(report), "--table", str(table)]
    assert main(argv) == 0
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, table)) == digests


def _fitting_run():
    corpus = length_normalize(generate_synthetic(SynthSpec(n_speakers=3, n_emotions=3, utts_per_cell=4, dim=6, seed=4)))
    return corpus, cluster_speakers(corpus, KMeansConfig(k=4, seed=1))


def test_speaker_rows_lists_the_speakers_rows_in_utt_id_order():
    corpus, run = _fitting_run()
    for spk, sc in run.per_speaker.items():
        rows, clusters = speaker_rows(sc, spk, corpus)
        assert [corpus.utt_ids[row] for row in rows] == sorted(sc.assignments)
        assert clusters == [sc.assignments[corpus.utt_ids[row]] for row in rows]
        assert sorted(rows) == corpus.speakers[spk]


def _misfit(case: str, sc, other) -> str:
    """Edit one speaker's clustering so that it no longer fits the corpus, and
    return the entry the error then names after the speaker."""
    first = sorted(sc.assignments)[0]
    if case == "nan-center":
        sc.centers[1, 0] = np.nan
        return "center 1 is not finite"
    if case == "centers-one-dim-short":
        sc.centers = sc.centers[:, :-1]
        return "centers have shape (4, 5), not (k, 6)"
    if case.startswith("cluster"):
        sc.assignments[first] = cluster = int(case[len("cluster"):])
        return f"utterance {first!r} has cluster {cluster}, not one of its 4 centers"
    if case == "utterance-left-out":
        del sc.assignments[first]
        return f"the speaker's utterance {first!r} is not clustered"
    if case == "other-speakers-utterance":
        utt = sorted(other.assignments)[0]
        sc.assignments[utt] = 0
        return f"clustered utterance {utt!r} is not one of the speaker's utterances in the corpus"
    sc.assignments["nope"] = 0  # absent from the corpus
    return "clustered utterance 'nope' missing from corpus"


@pytest.mark.parametrize(
    "read",
    [lambda run, corpus: mine_tuples(run, corpus, MiningConfig(n_clusters_N=4)), evaluate_run],
    ids=["mine_tuples", "evaluate_run"],
)
@pytest.mark.parametrize(
    "case",
    ["nan-center", "centers-one-dim-short", "cluster7", "cluster-1", "utterance-left-out",
     "other-speakers-utterance", "absent-from-corpus"],
)
def test_misfit_clustering_raises_naming_speaker_and_entry(read, case):
    corpus, run = _fitting_run()
    spk, other = sorted(run.per_speaker)[1:3]
    entry = _misfit(case, run.per_speaker[spk], run.per_speaker[other])
    with pytest.raises(ValueError) as info:
        read(run, corpus)
    assert str(info.value) == f"speaker {spk!r}: {entry}"
