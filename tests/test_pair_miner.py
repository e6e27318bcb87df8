import hashlib
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster.clustering import KMeansConfig, center_distances, cluster_speakers
from emocluster.corpus import SynthSpec, generate_synthetic, length_normalize
from emocluster.pair_miner import (
    ContrastiveTuple,
    MiningConfig,
    Negative,
    load_tuples,
    mine_tuples,
    ranked_negative_clusters,
    save_tuples,
)


@pytest.fixture(scope="module")
def mined():
    spec = SynthSpec(
        n_speakers=4, n_emotions=4, utts_per_cell=20, dim=8,
        speaker_spread=1.0, emotion_offset_norm=1.0, within_noise=0.25, seed=6,
    )
    corpus = length_normalize(generate_synthetic(spec))
    run = cluster_speakers(corpus, KMeansConfig(k=4, seed=2))
    config = MiningConfig(n_clusters_N=4, seed=3)
    report = {}
    tuples = mine_tuples(run, corpus, config, report=report)
    return corpus, run, config, tuples, report


def test_tuple_structural_invariants(mined):
    corpus, run, config, tuples, report = mined
    speaker_of = dict(zip(corpus.utt_ids, corpus.spk_ids))
    for t in tuples:
        assert t.anchor != t.positive
        assert speaker_of[t.anchor] == t.spk_id
        assert speaker_of[t.positive] == t.spk_id
        sc = run.per_speaker[t.spk_id]
        assert sc.assignments[t.anchor] == sc.assignments[t.positive]
        clusters = [n.cluster for n in t.negatives]
        assert len(set(clusters)) == len(clusters)
        for n in t.negatives:
            assert speaker_of[n.utt_id] == t.spk_id
            assert sc.assignments[n.utt_id] == n.cluster
            assert n.cluster != sc.assignments[t.anchor]


def test_negative_window_size(mined):
    _, _, config, tuples, _ = mined
    for t in tuples:
        assert 1 <= len(t.negatives) <= config.n_clusters_N // 2


def test_negatives_come_from_farthest_clusters(mined):
    corpus, run, config, tuples, _ = mined
    m = config.n_clusters_N // 2
    for t in tuples:
        sc = run.per_speaker[t.spk_id]
        populated = set(sc.assignments.values())
        dists = center_distances(sc)
        own = sc.assignments[t.anchor]
        expected = ranked_negative_clusters(dists[own], own, populated)[:m]
        assert [n.cluster for n in t.negatives] == expected


def test_ordering_and_determinism(mined):
    corpus, run, config, tuples, _ = mined
    keys = [(t.spk_id, t.anchor) for t in tuples]
    assert keys == sorted(keys)
    again = mine_tuples(run, corpus, config)
    assert [(t.anchor, t.positive, [(n.utt_id, n.cluster) for n in t.negatives]) for t in tuples] == [
        (t.anchor, t.positive, [(n.utt_id, n.cluster) for n in t.negatives]) for t in again
    ]


def test_different_seed_changes_samples_not_ranking(mined):
    corpus, run, config, tuples, _ = mined
    other = mine_tuples(run, corpus, MiningConfig(n_clusters_N=4, seed=99))
    assert [t.anchor for t in tuples] == [t.anchor for t in other]
    assert [[n.cluster for n in t.negatives] for t in tuples] == [
        [n.cluster for n in t.negatives] for t in other
    ]
    assert any(
        a.positive != b.positive or [n.utt_id for n in a.negatives] != [n.utt_id for n in b.negatives]
        for a, b in zip(tuples, other)
    )


def test_emotion_alignment_on_separable_corpus(mined):
    corpus, run, config, tuples, _ = mined
    emotion_of = dict(zip(corpus.utt_ids, corpus.emotions))
    pos_same = [emotion_of[t.anchor] == emotion_of[t.positive] for t in tuples]
    neg_diff = [
        emotion_of[t.anchor] != emotion_of[n.utt_id] for t in tuples for n in t.negatives
    ]
    assert np.mean(pos_same) >= 0.95
    assert np.mean(neg_diff) >= 0.95


def test_mismatched_k_warns(mined):
    corpus, run, _, _, _ = mined
    with pytest.warns(UserWarning, match="mining expects N"):
        mine_tuples(run, corpus, MiningConfig(n_clusters_N=8, seed=0))


def test_singleton_anchor_skipped():
    from emocluster.clustering import SpeakerClustering, ClusteringRun
    from emocluster.corpus import Corpus

    corpus = Corpus(np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]]), ["a", "b", "c"], ["s"] * 3, [None] * 3)
    sc = SpeakerClustering(
        assignments={"a": 0, "b": 0, "c": 1},
        centers=np.array([[0.05, 0.0], [5.0, 5.0]]),
        inertia=0.0,
    )
    run = ClusteringRun(per_speaker={"s": sc}, config=KMeansConfig(k=2))
    report = {}
    tuples = mine_tuples(run, corpus, MiningConfig(n_clusters_N=2, seed=0), report=report)
    assert {t.anchor for t in tuples} == {"a", "b"}
    assert report["skipped_singleton"] == 1  # "c" has no positive


@pytest.mark.filterwarnings("ignore:clustering used k=")
def test_speaker_with_single_cluster_skipped():
    from emocluster.clustering import SpeakerClustering, ClusteringRun
    from emocluster.corpus import Corpus

    corpus = Corpus(np.arange(4.0)[:, None], [f"u{i}" for i in range(4)], ["s"] * 4, [None] * 4)
    sc = SpeakerClustering({f"u{i}": 0 for i in range(4)}, np.array([[1.5]]), 0.0)
    run = ClusteringRun(per_speaker={"s": sc}, config=KMeansConfig(k=1))
    report = {}
    tuples = mine_tuples(run, corpus, MiningConfig(n_clusters_N=2, seed=0), report=report)
    assert tuples == []
    assert report["skipped_too_few_clusters"] == 4


@pytest.mark.filterwarnings("ignore:clustering used k=")
def test_two_populated_clusters_yield_one_negative(mined):
    # N=20 with only a handful of populated clusters: fewer negatives allowed
    corpus, run, _, _, _ = mined
    tuples = mine_tuples(run, corpus, MiningConfig(n_clusters_N=20, seed=0))
    for t in tuples:
        assert len(t.negatives) == 3  # 4 populated clusters -> 3 others available


@pytest.mark.filterwarnings("ignore:clustering used k=")
def test_exact_negative_window_skips_short(mined):
    corpus, run, _, _, _ = mined
    report = {}
    tuples = mine_tuples(
        run, corpus, MiningConfig(n_clusters_N=20, seed=0, allow_fewer_negatives=False), report=report
    )
    assert tuples == []
    assert report["skipped_short_window"] == len(
        [u for sc in run.per_speaker.values() for u in sc.assignments]
    )


def test_clustered_utterance_missing_from_corpus_rejected(mined):
    corpus, run, config, _, _ = mined
    truncated = corpus.take(range(len(corpus) // 2))
    with pytest.raises(ValueError, match="missing from corpus"):
        mine_tuples(run, truncated, config)


@pytest.mark.parametrize("cluster", [-1, 4])
def test_assignment_outside_the_centers_rejected(mined, cluster):
    corpus, run, config, _, _ = mined
    spk = sorted(run.per_speaker)[0]
    sc = run.per_speaker[spk]
    utt = sorted(sc.assignments)[2]
    bad = replace(sc, assignments={**sc.assignments, utt: cluster})
    with pytest.raises(ValueError, match=f"utterance {utt!r} has cluster {cluster}, not one of its 4 centers"):
        mine_tuples(replace(run, per_speaker={spk: bad}), corpus, config)


def test_odd_n_warns_and_floors():
    config = MiningConfig(n_clusters_N=5, seed=0)
    with pytest.warns(UserWarning, match="odd"):
        config.validate()
    assert config.negatives_per_anchor == 2


def test_save_load_roundtrip(tmp_path, mined):
    _, _, _, tuples, _ = mined
    path = tmp_path / "tuples.jsonl"
    save_tuples(tuples, str(path))
    loaded = load_tuples(str(path))
    assert loaded == tuples


def test_empty_roundtrip(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_tuples([], str(path))
    assert path.read_text() == ""
    assert load_tuples(str(path)) == []


def test_large_roundtrip_hash_identical(tmp_path):
    rng = np.random.default_rng(0)
    tuples = [
        ContrastiveTuple(
            anchor=f"a{i}",
            positive=f"p{i}",
            negatives=[Negative(f"n{i}_{j}", j) for j in range(int(rng.integers(1, 6)))],
            spk_id=f"s{i % 7}",
        )
        for i in range(10_000)
    ]
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_tuples(tuples, str(p1))
    save_tuples(load_tuples(str(p1)), str(p2))
    h = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert h(p1) == h(p2)


@pytest.mark.filterwarnings("ignore:n_clusters_N=7 is odd")
@pytest.mark.parametrize(
    "n, digest",
    [
        (2, "158f0ff6ebb90d69a354e0336fb0a00af6c3d42ef50792d5d5dacda28f0b88f3"),
        (4, "7f9eb31287c8dd6a87b2f923333005ca291ff9b1d94e0774a926f28c19b81367"),
        (7, "7b944f65c5761e27270c85dcda9a5e4b3256d701eb3d13a7029ac25aeb88aa68"),
        (12, "3f7e1e2ec6d6de752730e7f1ff04f870b7c61c57aef2e7f82d02cd993d9142fc"),
    ],
)
def test_mined_tuple_file_is_pinned(tmp_path, n, digest):
    # the files the per-cluster negative draws gave; one rng.integers call
    # over the whole window must reproduce them byte for byte
    corpus = length_normalize(
        generate_synthetic(SynthSpec(n_speakers=5, n_emotions=4, utts_per_cell=10, dim=8, seed=12))
    )
    run = cluster_speakers(corpus, KMeansConfig(k=n, seed=5))
    path = tmp_path / "tuples.jsonl"
    save_tuples(mine_tuples(run, corpus, MiningConfig(n_clusters_N=n, seed=8)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"anchor": "a", "positive": "p", "negatives": [{"utt_id": "n", "cluster": 0}], "spk": "s"}\n{broken\n')
    with pytest.raises(ValueError, match=":2"):
        load_tuples(str(path))


def test_invalid_utf8_names_path_line_and_byte(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(
        b'{"anchor": "a", "positive": "p", "negatives": [{"utt_id": "n", "cluster": 0}], "spk": "s"}\n'
        b'{"anchor": "\xff"}\n'
    )
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: not valid UTF-8 at byte 12"):
        load_tuples(str(path))


def test_overflowing_cluster_names_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"anchor": "a", "positive": "p", "negatives": [{"utt_id": "n", "cluster": 1e999}], "spk": "s"}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: malformed tuple line"):
        load_tuples(str(path))


@pytest.mark.parametrize(
    "line",
    [
        '{"anchor": "a", "positive": "p", "negatives": [{"utt_id": "n", "cluster": 0.7}], "spk": "s"}',
        '{"anchor": "a", "positive": "p", "negatives": [{"utt_id": "n", "cluster": true}], "spk": "s"}',
        '{"anchor": null, "positive": "p", "negatives": [{"utt_id": "n", "cluster": 0}], "spk": "s"}',
        '{"anchor": "a", "positive": "p", "negatives": [{"utt_id": 3, "cluster": 0}], "spk": "s"}',
        '{"anchor": "a", "positive": "p", "negatives": {"utt_id": "n", "cluster": 0}, "spk": "s"}',
    ],
)
def test_ill_typed_tuple_value_is_not_coerced(tmp_path, line):
    # a fractional or boolean cluster is not read as a cluster index, nor null as an utterance id
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:1: malformed tuple line \(expected "):
        load_tuples(str(path))


_FUZZ_TUPLES = [
    ContrastiveTuple("a0", "p0", [Negative("n0", 0), Negative("n1", 3)], "s0"),
    ContrastiveTuple("a1", "p1", [Negative("n2", 1)], "s1"),
]


def _valid_tuples_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        save_tuples(_FUZZ_TUPLES, path)
        with open(path, "rb") as fh:
            return fh.read()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_tuples_load_or_raise_value_error_naming_the_file(data):
    blob = bytearray(_valid_tuples_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.jsonl")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            load_tuples(path)
        except ValueError as exc:
            assert str(exc).startswith(path), exc


def test_load_validates_invariants(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"anchor": "a", "positive": "a", "negatives": [{"utt_id": "n", "cluster": 0}], "spk": "s"}\n')
    with pytest.raises(ValueError, match="anchor equals positive"):
        load_tuples(str(path))
    path.write_text(
        '{"anchor": "a", "positive": "p", "negatives": [{"utt_id": "n", "cluster": 0}, {"utt_id": "m", "cluster": 0}], "spk": "s"}\n'
    )
    with pytest.raises(ValueError, match="pairwise distinct"):
        load_tuples(str(path))
