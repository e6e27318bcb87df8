import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster.cluster_metrics import (
    ari,
    contingency_table,
    evaluate_run,
    nmi,
    purity,
    report_to_dict,
    report_to_table,
    silhouette,
)
from emocluster.clustering import KMeansConfig, cluster_speakers
from emocluster.corpus import SynthSpec, generate_synthetic, length_normalize

from oracles import brute_ari, brute_nmi, brute_purity, brute_silhouette


def test_nmi_perfect_agreement():
    assert nmi([0, 0, 1, 1], ["a", "a", "b", "b"]) == pytest.approx(1.0)


def test_nmi_independence():
    assert nmi([0, 1, 0, 1], ["a", "a", "b", "b"]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_mixed_case_matches_contingency_oracle():
    clusters, labels = [0, 0, 1, 1], ["a", "a", "a", "b"]
    assert nmi(clusters, labels) == pytest.approx(brute_nmi(clusters, labels), abs=1e-12)


def test_nmi_single_class_conventions():
    assert nmi([0, 0, 0], ["a", "a", "a"]) == 1.0
    assert nmi([0, 0, 0], ["a", "b", "a"]) == 0.0
    assert nmi([0, 1, 2], ["a", "a", "a"]) == 0.0


@pytest.mark.parametrize("normalizer", ["arithmetic", "min", "max", "geometric"])
def test_nmi_normalizer_variants_match_oracle(normalizer):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        clusters = rng.integers(0, 3, size=n).tolist()
        labels = rng.integers(0, 3, size=n).tolist()
        assert nmi(clusters, labels, normalizer) == pytest.approx(
            brute_nmi(clusters, labels, normalizer), abs=1e-12
        )


def test_nmi_rejects_unknown_normalizer():
    with pytest.raises(ValueError, match="normalizer"):
        nmi([0, 1], [0, 1], "harmonic")


def test_ari_identical_partitions():
    assert ari([0, 0, 1, 1], ["x", "x", "y", "y"]) == pytest.approx(1.0)


def test_ari_degenerate_single_class_agreement():
    assert ari([0, 0, 0], ["a", "a", "a"]) == pytest.approx(1.0)


def test_ari_pair_enumeration_oracle():
    clusters, labels = [0, 0, 1, 1], ["a", "a", "a", "b"]
    assert ari(clusters, labels) == pytest.approx(brute_ari(clusters, labels), abs=1e-12)


def test_ari_needs_two_items():
    with pytest.raises(ValueError, match="at least 2"):
        ari([0], ["a"])


def test_purity_examples():
    assert purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
    assert purity([0, 0, 1, 1], ["a", "a", "a", "b"]) == pytest.approx(0.75)
    assert purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == pytest.approx(0.5)


def test_length_mismatch_rejected():
    for fn in (nmi, ari, purity):
        with pytest.raises(ValueError, match="length mismatch"):
            fn([0, 1], ["a"])


def test_silhouette_two_tight_far_clusters():
    points = np.array([[0.0], [0.0], [10.0], [10.0]])
    assert silhouette(points, [0, 0, 1, 1]) == pytest.approx(1.0)


def test_silhouette_identical_points_convention():
    points = np.zeros((4, 2))
    assert silhouette(points, [0, 0, 1, 1]) == 0.0


def test_silhouette_single_cluster_undefined():
    with pytest.raises(ValueError, match="silhouette undefined"):
        silhouette(np.zeros((3, 2)), [0, 0, 0])


def test_silhouette_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(4, 15))
        points = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n).tolist()
        if len(set(labels)) < 2:
            labels[0] = (labels[0] + 1) % 3
        assert silhouette(points, labels) == pytest.approx(
            brute_silhouette(points, labels), abs=1e-12
        )


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=20
    ),
    st.permutations(range(3)),
    st.permutations(range(3)),
)
@settings(max_examples=60, deadline=None)
def test_metrics_invariant_to_relabeling_and_order(pairs, cl_perm, lab_perm):
    clusters = [c for c, _ in pairs]
    labels = [l for _, l in pairs]
    renamed_c = [cl_perm[c] for c in clusters]
    renamed_l = [lab_perm[l] for l in labels]
    shuffled = sorted(zip(renamed_c, renamed_l), key=lambda t: (t[0], t[1]))
    sc = [c for c, _ in shuffled]
    sl = [l for _, l in shuffled]
    assert nmi(clusters, labels) == pytest.approx(nmi(sc, sl), abs=1e-12)
    assert ari(clusters, labels) == pytest.approx(ari(sc, sl), abs=1e-12)
    assert purity(clusters, labels) == pytest.approx(purity(sc, sl), abs=1e-12)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_purity_bounds(pairs):
    clusters = [c for c, _ in pairs]
    labels = [l for _, l in pairs]
    p = purity(clusters, labels)
    largest = max(labels.count(v) for v in set(labels))
    assert p >= largest / len(labels) - 1e-12
    assert p <= 1.0 + 1e-12
    pure = all(
        len({l for c2, l in zip(clusters, labels) if c2 == c}) == 1 for c in set(clusters)
    )
    assert (abs(p - 1.0) < 1e-12) == pure


def test_contingency_table_shape():
    table = contingency_table([0, 0, 1], ["a", "b", "b"])
    assert table.tolist() == [[1, 1], [0, 1]]


def _toy_run_and_corpus():
    spec = SynthSpec(
        n_speakers=3, n_emotions=3, utts_per_cell=12, dim=6,
        speaker_spread=1.0, emotion_offset_norm=2.0, within_noise=0.5, seed=4,
    )
    corpus = length_normalize(generate_synthetic(spec))
    run = cluster_speakers(corpus, KMeansConfig(k=3, seed=9))
    return run, corpus


def test_evaluate_run_composes_per_metric_oracles():
    run, corpus = _toy_run_and_corpus()
    report = evaluate_run(run, corpus)
    by_id = corpus.record_by_id()
    for spk, sc in run.per_speaker.items():
        utts = sorted(sc.assignments)
        clusters = [sc.assignments[u] for u in utts]
        labels = [by_id[u].emotion for u in utts]
        points = np.stack([by_id[u].vec for u in utts])
        assert report.per_speaker[spk]["nmi"] == pytest.approx(brute_nmi(clusters, labels), abs=1e-12)
        assert report.per_speaker[spk]["ari"] == pytest.approx(brute_ari(clusters, labels), abs=1e-12)
        assert report.per_speaker[spk]["purity"] == pytest.approx(brute_purity(clusters, labels), abs=1e-12)
        assert report.per_speaker[spk]["silhouette"] == pytest.approx(
            brute_silhouette(points, clusters), abs=1e-12
        )
    for name in ("nmi", "ari", "purity", "silhouette"):
        values = [m[name] for m in report.per_speaker.values()]
        assert report.averages[name] == pytest.approx(np.mean(values))


def test_evaluate_run_warns_and_drops_unlabeled():
    run, corpus = _toy_run_and_corpus()
    spk = sorted(run.per_speaker)[0]
    for rec in corpus.records:
        if rec.spk_id == spk:
            rec.emotion = None
    with pytest.warns(UserWarning):
        report = evaluate_run(run, corpus)
    assert spk not in report.per_speaker


def test_report_serialization_and_table():
    run, corpus = _toy_run_and_corpus()
    report = evaluate_run(run, corpus)
    payload = report_to_dict(report)
    assert set(payload) == {"per_speaker", "averages", "speakers_averaged"}
    assert payload["speakers_averaged"] == {name: len(report.per_speaker) for name in payload["averages"]}
    table = report_to_table(report)
    lines = table.strip().splitlines()
    assert lines[0].split() == ["speaker", "NMI", "ARI", "Purity", "Silhouette"]
    assert lines[-1].startswith("average")


def test_metrics_agree_with_sklearn_on_random_instances():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        clusters = rng.integers(0, 4, size=n).tolist()
        labels = rng.integers(0, 3, size=n).tolist()
        if len(set(clusters)) < 2 or len(set(labels)) < 2:
            continue
        assert nmi(clusters, labels) == pytest.approx(
            sklearn_metrics.normalized_mutual_info_score(labels, clusters), abs=1e-9
        )
        assert ari(clusters, labels) == pytest.approx(
            sklearn_metrics.adjusted_rand_score(labels, clusters), abs=1e-9
        )
        points = rng.normal(size=(n, 4))
        assert silhouette(points, clusters) == pytest.approx(
            sklearn_metrics.silhouette_score(points, clusters), abs=1e-9
        )
