import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocluster import corpus as corpus_module
from emocluster import parallel
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


def test_finite_rows_that_sum_past_the_float64_range_load_without_a_warning():
    # pytest turns a RuntimeWarning into an error here, so an overflow warning fails the test
    corpus = Corpus([[1e308, 1e308], [-1e308, 1.0]], ["u1", "u2"], ["s", "s"], [None, None])
    assert corpus.vectors[0, 0] == 1e308


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
        '{"utt_id": "b", "spk_id": "s", "emotion": null, "vec": [1%s, 2.0, 3.0]}' % ("0" * 5000),
    ],
)
def test_jsonl_ill_typed_record_names_path_and_line(tmp_path, record):
    # no id is coerced (null is not the utterance 'None'); a short vec, an
    # integer beyond the float64 range, or one past Python's digit limit, names its line too
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


def _load_in_ranges(mp, path, chunk_bytes: int, workers: int = 2):
    """load_corpus of a jsonl file parsed in ranges of about chunk_bytes on
    `workers` workers: the corpus, or the CorpusError's message."""
    mp.setattr(corpus_module, "_CHUNK_BYTES", chunk_bytes)
    mp.setattr(parallel, "worker_count", lambda: workers)
    try:
        return load_corpus(str(path), "jsonl")
    except CorpusError as exc:
        return str(exc)


def _one_range_bytes(path) -> int:
    return os.path.getsize(path) + 1


_RECORD = st.tuples(  # (spk_id, emotion, vec)
    st.sampled_from(["s0", "s1", "sé"]),
    st.sampled_from([None, "happy", "sad"]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**60), 2**60), min_size=3, max_size=3),
)


@given(
    st.lists(st.tuples(_RECORD, st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "\n", " \r\n", "\t\n"])), min_size=1),
    st.booleans(),
    st.integers(1, 64),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_jsonl_loads_the_same_in_any_ranges(lines, final_newline, chunk_bytes, workers):
    # blank lines, CRLF endings and a missing final newline: the same columns and vector bits as one range
    text = "".join(
        json.dumps({"utt_id": f"u{i}", "spk_id": spk, "emotion": emotion, "vec": vec}, ensure_ascii=False) + end + blank
        for i, ((spk, emotion, vec), end, blank) in enumerate(lines)
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "c.jsonl")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8") if final_newline else text.rstrip("\r\n\t ").encode("utf-8"))
        whole = _load_in_ranges(mp, path, _one_range_bytes(path), workers=1)
        chunked = _load_in_ranges(mp, path, chunk_bytes, workers)
    assert isinstance(whole, Corpus), whole
    assert isinstance(chunked, Corpus), chunked
    assert (chunked.utt_ids, chunked.spk_ids, chunked.emotions) == (whole.utt_ids, whole.spk_ids, whole.emotions)
    assert chunked.vectors.tobytes() == whole.vectors.tobytes()


def _line(i: int, vec: str = "[1.0, 2.0, 3.0]") -> bytes:
    return f'{{"utt_id": "u{i}", "spk_id": "s", "emotion": null, "vec": {vec}}}'.encode()


@pytest.mark.parametrize(
    "damage, problem",
    [
        (_line(0)[:-5], "malformed json"),
        (_line(0, "[1.0, 2.0]"), "dimension mismatch: 2 values, expected 3"),
        (_line(0, '["1.0", 2.0, 3.0]'), "vec must be a nonempty list of numbers"),
        (b'{"utt_id": "u", "utt_id": "v", "spk_id": "s", "vec": [1.0, 2.0, 3.0]}', "malformed json (repeated key 'utt_id')"),
        (b'{"utt_id": "\xff"}', "not valid UTF-8 at byte 12"),
    ],
    ids=["truncated", "short-vec", "string-in-vec", "repeated-key", "invalid-utf8"],
)
def test_a_damaged_line_in_a_later_range_names_its_line(tmp_path, monkeypatch, damage, problem):
    # 30 lines in 40-byte ranges, about one line each: line 17 is damaged, and a later range's line 25 too
    lines = [_line(i) for i in range(30)]
    lines[16], lines[24] = damage, b"not json"
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    whole = _load_in_ranges(monkeypatch, path, _one_range_bytes(path), workers=1)
    assert len(corpus_module._jsonl_ranges(str(path))) == 1
    assert _load_in_ranges(monkeypatch, path, 40) == whole
    assert len(corpus_module._jsonl_ranges(str(path))) > 20
    assert whole.startswith(f"{path}:17: {problem}"), whole


@pytest.mark.parametrize("content", [b"", b"\n", b"  \r\n\t\n\n   "], ids=["empty", "newline", "blank-lines"])
def test_a_jsonl_file_without_records_has_no_records(tmp_path, monkeypatch, content):
    path = tmp_path / "c.jsonl"
    path.write_bytes(content)
    assert _load_in_ranges(monkeypatch, path, 2) == f"{path}: corpus has no records"


@pytest.mark.parametrize("tail", [b"", b"\n[1]\n"], ids=["valid", "damaged-last-line"])
def test_a_jsonl_corpus_in_a_pipe_loads_like_the_file(tmp_path, monkeypatch, tail):
    # a pipe is read once, front to back, in-process: the same corpus, or the same message
    path = tmp_path / "c.jsonl"
    save_corpus(_FUZZ_CORPUS, str(path))
    path.write_bytes(path.read_bytes() + tail)
    read, write = os.pipe()
    try:
        os.write(write, path.read_bytes())  # a few hundred bytes: the pipe holds them all
        os.close(write)
        pipe = f"/dev/fd/{read}"
        from_pipe = _load_in_ranges(monkeypatch, pipe, 40)
    finally:
        os.close(read)
    from_file = _load_in_ranges(monkeypatch, path, 40)
    if tail:
        assert from_pipe == from_file.replace(str(path), pipe)
        assert from_pipe.startswith(f"{pipe}:7: malformed record"), from_pipe
    else:
        assert _same_corpus(from_pipe, from_file)


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
    # numpy's generator takes no negative seed, and its own message names neither the flag nor the setting
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        generate_synthetic(SynthSpec(n_speakers=1, n_emotions=1, utts_per_cell=1, dim=2, seed=-1))


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
