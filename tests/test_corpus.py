import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster.corpus import (
    Corpus,
    CorpusError,
    SynthSpec,
    generate_synthetic,
    is_normalized,
    length_normalize,
    load_corpus,
    save_corpus,
    strip_labels,
)


def _same_corpus(a, b) -> bool:
    """Ids, speakers, labels and every vector bit agree."""
    return (a.utt_ids, a.spk_ids, a.emotions) == (b.utt_ids, b.spk_ids, b.emotions) and np.array_equal(
        a.vectors, b.vectors
    )


def test_load_minimal_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"utt_id": "u1", "spk_id": "s1", "emotion": "happy", "vec": [1.0, 2.0, 3.0]}\n'
        '{"utt_id": "u2", "spk_id": "s1", "emotion": null, "vec": [4.0, 5.0, 6.0]}\n'
    )
    corpus = load_corpus(str(path), "jsonl")
    assert len(corpus) == 2
    assert corpus.dim == 3
    assert corpus.emotions[1] is None
    assert corpus.speakers == {"s1": [0, 1]}


def test_dimension_mismatch_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"utt_id": "u1", "spk_id": "s1", "emotion": null, "vec": [1.0, 2.0, 3.0]}\n'
        '{"utt_id": "u2", "spk_id": "s1", "emotion": null, "vec": [1.0, 2.0, 3.0, 4.0]}\n'
    )
    with pytest.raises(CorpusError, match="dimension mismatch"):
        load_corpus(str(path), "jsonl")


def test_duplicate_utt_id_rejected():
    with pytest.raises(CorpusError, match="duplicate utt_id"):
        Corpus([[1.0], [2.0]], ["u", "u"], ["s", "s"], [None, None])


def test_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"utt_id": "u1", "spk_id": "s", "emotion": null, "vec": [1.0]}\nnot json\n')
    with pytest.raises(CorpusError, match=":2"):
        load_corpus(str(path), "jsonl")


def test_truncated_bin_reports_offset(tmp_path):
    good = tmp_path / "c.bin"
    corpus = Corpus([[1.0, 2.0]], ["u1"], ["s1"], ["sad"])
    save_corpus(corpus, str(good), "bin")
    data = good.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data[:-3])
    with pytest.raises(CorpusError, match="truncated"):
        load_corpus(str(bad), "bin")


def test_bin_invalid_utf8_id_names_path_and_offset(tmp_path):
    path = tmp_path / "c.bin"
    save_corpus(Corpus([[1.0, 2.0]], ["u1"], ["s1"], ["sad"]), str(path), "bin")
    data = bytearray(path.read_bytes())
    data[8 + 2 + 1] = 0xFF  # second byte of utt_id "u1"
    path.write_bytes(bytes(data))
    with pytest.raises(CorpusError, match=r"c\.bin: utt_id is not valid UTF-8 at offset 11"):
        load_corpus(str(path), "bin")


@pytest.mark.parametrize("vec", ["5", "[]", '["x"]', '["1.5"]', "[true, 1.0]", "[null, 1.0]"])
def test_jsonl_bad_vec_names_record(tmp_path, vec):
    path = tmp_path / "c.jsonl"
    path.write_text(f'{{"utt_id": "a", "spk_id": "s", "emotion": null, "vec": {vec}}}\n')
    with pytest.raises(CorpusError, match="'a'|c.jsonl:1") as caught:
        load_corpus(str(path), "jsonl")
    assert str(caught.value).startswith(f"{path}:1: "), caught.value


_GOOD_LINE = '{"utt_id": "a", "spk_id": "s", "emotion": null, "vec": [1.0, 2.0, 3.0]}\n'


@pytest.mark.parametrize(
    "record",
    [
        '{"utt_id": null, "spk_id": "s", "emotion": null, "vec": [1.0, 2.0, 3.0]}',
        '{"utt_id": "b", "spk_id": 7, "emotion": null, "vec": [1.0, 2.0, 3.0]}',
        '{"utt_id": "b", "spk_id": "s", "emotion": 1, "vec": [1.0, 2.0, 3.0]}',
        '{"utt_id": "b", "spk_id": "s", "emotion": null, "vec": [1.0, 2.0]}',
        '{"utt_id": "b", "spk_id": "s", "emotion": null, "vec": [1%s, 2.0, 3.0]}' % ("0" * 400),
    ],
)
def test_jsonl_ill_typed_record_names_path_and_line(tmp_path, record):
    # no id is coerced (null is not the utterance 'None'); a short vec, or an
    # integer beyond the float64 range, names its line too
    path = tmp_path / "c.jsonl"
    path.write_text(_GOOD_LINE + record + "\n")
    with pytest.raises(CorpusError) as caught:
        load_corpus(str(path), "jsonl")
    assert str(caught.value).startswith(f"{path}:2: "), caught.value


def _unloadable_corpus_file(tmp_path, fmt: str, case: str):
    """A corpus file whose records parse but do not form a corpus."""
    path = tmp_path / f"c.{fmt}"
    save_corpus(Corpus([[1.0, 2.0], [3.0, 4.0]], ["u1", "u2"], ["s", "s"], [None, "sad"]), str(path), fmt)
    data = path.read_bytes()
    if case == "empty":
        data = data[: 8 if fmt == "bin" else 0]  # a bin file keeps its header
    elif case == "duplicate":
        data = data.replace(b"u2", b"u1")
    elif fmt == "jsonl":
        data = data.replace(b"3.0", b"1e999")
    else:
        data = data.replace(struct.pack("<f", 3.0), struct.pack("<f", np.inf))
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("fmt", ["jsonl", "bin"])
@pytest.mark.parametrize(
    "case, problem",
    [("empty", "corpus has no records"), ("duplicate", "duplicate utt_id 'u1'"), ("inf", "non-finite entries")],
)
def test_unloadable_corpus_names_the_file(tmp_path, fmt, case, problem):
    path = _unloadable_corpus_file(tmp_path, fmt, case)
    with pytest.raises(CorpusError) as caught:
        load_corpus(str(path), fmt)
    assert str(caught.value).startswith(f"{path}: {problem}"), caught.value


_FUZZ_CORPUS = Corpus(
    [[0.5 * i, -1.0, 2.0] for i in range(5)],
    [f"u{i}" for i in range(5)],
    [f"s{i % 2}" for i in range(5)],
    [None if i == 3 else "happy" for i in range(5)],
)


def _valid_bytes(fmt: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"c.{fmt}")
        save_corpus(_FUZZ_CORPUS, path, fmt)
        with open(path, "rb") as fh:
            return fh.read()


def _load_damaged(data, fmt: str) -> None:
    """Truncate a valid corpus file or flip one of its bytes: it loads, or
    raises CorpusError whose message starts with the path."""
    blob = bytearray(_valid_bytes(fmt))
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"c.{fmt}")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            load_corpus(path, fmt)
        except CorpusError as exc:
            assert str(exc).startswith(path), exc


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_bin_loads_or_raises_corpus_error(data):
    _load_damaged(data, "bin")


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_jsonl_loads_or_raises_corpus_error_naming_the_file(data):
    _load_damaged(data, "jsonl")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(CorpusError, match="magic"):
        load_corpus(str(path), "bin")


def test_jsonl_roundtrip_bit_identical(tmp_path):
    spec = SynthSpec(n_speakers=5, n_emotions=4, utts_per_cell=10, dim=7, seed=3)
    corpus = generate_synthetic(spec)
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, str(path), "jsonl")
    loaded = load_corpus(str(path), "jsonl")
    assert len(loaded) == len(corpus)
    assert _same_corpus(corpus, loaded)  # vectors exact, no tolerance


def test_bin_roundtrip_stable_after_first_quantization(tmp_path):
    spec = SynthSpec(n_speakers=4, n_emotions=2, utts_per_cell=10, dim=5, seed=3)
    corpus = generate_synthetic(spec)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_corpus(corpus, str(p1), "bin")
    once = load_corpus(str(p1), "bin")
    save_corpus(once, str(p2), "bin")
    twice = load_corpus(str(p2), "bin")
    assert p1.read_bytes() == p2.read_bytes()
    assert _same_corpus(once, twice)


def test_load_save_load_identity_both_formats(tmp_path):
    spec = SynthSpec(n_speakers=6, n_emotions=4, utts_per_cell=12, dim=8, seed=42)
    corpus = generate_synthetic(spec)
    for fmt in ("jsonl", "bin"):
        p1 = tmp_path / f"one.{fmt}"
        p2 = tmp_path / f"two.{fmt}"
        save_corpus(corpus, str(p1), fmt)
        first = load_corpus(str(p1), fmt)
        save_corpus(first, str(p2), fmt)
        second = load_corpus(str(p2), fmt)
        assert _same_corpus(first, second)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(CorpusError, match="unknown corpus format"):
        load_corpus(str(tmp_path / "x"), "csv")


def test_length_normalize_345_triangle():
    corpus = Corpus([[3.0, 4.0]], ["u"], ["s"], [None])
    out = length_normalize(corpus)
    assert np.allclose(out.vectors[0], [0.6, 0.8])


def test_length_normalize_idempotent_and_unit():
    spec = SynthSpec(n_speakers=3, n_emotions=2, utts_per_cell=8, dim=6, seed=1)
    once = length_normalize(generate_synthetic(spec))
    norms = np.linalg.norm(once.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-6)
    twice = length_normalize(once)
    assert np.allclose(once.vectors, twice.vectors)
    assert is_normalized(once)


def test_length_normalize_preserves_cosines():
    rng = np.random.default_rng(5)
    corpus = Corpus(rng.normal(size=(10, 6)), [f"u{i}" for i in range(10)], ["s"] * 10, [None] * 10)
    out = length_normalize(corpus)
    X, Y = corpus.vectors, out.vectors

    def cosines(m):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        unit = m / norms
        return unit @ unit.T

    assert np.allclose(cosines(X), cosines(Y), atol=1e-12)


@pytest.mark.parametrize("dim", [192, 512])
def test_length_normalize_rows_match_per_row_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    vecs = rng.normal(size=(2000, dim)) * rng.uniform(0.1, 10.0, size=(2000, 1))
    corpus = Corpus(vecs, [f"u{i}" for i in range(len(vecs))], ["s"] * len(vecs), [None] * len(vecs))
    expected = np.stack([v / np.linalg.norm(v) for v in vecs])
    assert np.array_equal(length_normalize(corpus).vectors, expected)


def test_corpus_take_and_shared_matrix():
    corpus = generate_synthetic(SynthSpec(n_speakers=3, n_emotions=2, utts_per_cell=4, dim=5, seed=2))
    rows = [5, 1, 20]
    part = corpus.take(rows)
    assert part.utt_ids == [corpus.utt_ids[i] for i in rows]
    assert np.array_equal(part.vectors, corpus.vectors[rows])
    assert part.speakers == {"spk000": [0, 1], "spk002": [2]}
    assert part.row_of[corpus.utt_ids[20]] == 2
    stripped = strip_labels(corpus)
    assert stripped.vectors is corpus.vectors  # no copy
    with pytest.raises(ValueError):
        corpus.vectors[0, 0] = 1.0  # read-only, so sharing it is safe
    with pytest.raises(CorpusError, match="no records"):
        corpus.take([])


def test_length_normalize_zero_vector_names_utt():
    corpus = Corpus([[0.0, 0.0]], ["bad_one"], ["s"], [None])
    with pytest.raises(CorpusError, match="bad_one"):
        length_normalize(corpus)


def test_generate_counts():
    spec = SynthSpec(n_speakers=10, n_emotions=4, utts_per_cell=80, dim=4, seed=0)
    corpus = generate_synthetic(spec)
    assert len(corpus) == 3200
    assert len(corpus.speakers) == 10
    emotions = set(corpus.emotions)
    assert emotions == {"neutral", "happy", "sad", "angry"}


def test_generate_bit_reproducible():
    spec = SynthSpec(n_speakers=3, n_emotions=3, utts_per_cell=5, dim=6, seed=77)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert _same_corpus(a, b)
    c = generate_synthetic(SynthSpec(n_speakers=3, n_emotions=3, utts_per_cell=5, dim=6, seed=78))
    assert not _same_corpus(a, c)


def test_generate_zero_offset_centers_converge_to_speaker_mean():
    spec = SynthSpec(
        n_speakers=2, n_emotions=3, utts_per_cell=4000, dim=4,
        speaker_spread=1.0, emotion_offset_norm=0.0, within_noise=1.0, seed=9,
    )
    corpus = generate_synthetic(spec)
    for spk, idx in corpus.speakers.items():
        vecs = corpus.vectors[idx]
        labels = [corpus.emotions[i] for i in idx]
        spk_mean = vecs.mean(axis=0)
        for emotion in set(labels):
            cell = vecs[[i for i, l in enumerate(labels) if l == emotion]]
            # means converge at ~sigma_w/sqrt(n); allow 5 standard errors
            assert np.linalg.norm(cell.mean(axis=0) - spk_mean) < 5 * 1.0 / np.sqrt(4000) * 2


def test_generate_validates_spec():
    with pytest.raises(ValueError):
        generate_synthetic(SynthSpec(n_speakers=0, n_emotions=1, utts_per_cell=1, dim=2))
    with pytest.raises(ValueError):
        generate_synthetic(SynthSpec(n_speakers=1, n_emotions=1, utts_per_cell=1, dim=2, within_noise=0.0))


def test_strip_labels():
    spec = SynthSpec(n_speakers=2, n_emotions=2, utts_per_cell=3, dim=4, seed=1)
    stripped = strip_labels(generate_synthetic(spec))
    assert all(emotion is None for emotion in stripped.emotions)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_generate_record_count_property(n_spk, n_emo, upc, seed):
    spec = SynthSpec(n_speakers=n_spk, n_emotions=n_emo, utts_per_cell=upc, dim=3, seed=seed)
    corpus = generate_synthetic(spec)
    assert len(corpus) == n_spk * n_emo * upc
    assert all(len(idx) == n_emo * upc for idx in corpus.speakers.values())
