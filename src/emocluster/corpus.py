"""Embedding corpora: loading, saving, normalization, and synthesis.

A corpus is column-oriented: one (n, dim) float64 matrix of embedding
vectors, parallel lists of utterance ids, speaker ids and optional emotion
labels, and a map from each speaker to its row indices.  Stages select
utterances by row (`Corpus.take`).  Two interchangeable on-disk formats are
supported: human-readable jsonl and a compact binary layout for large pools.
"""

import math
import os
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .parallel import fork_map
from .serialize import CorpusError, read_jsonl, write_jsonl

BIN_MAGIC = b"EMB1"

DEFAULT_EMOTIONS = ("neutral", "happy", "sad", "angry")

UNIT_NORM_TOL = 1e-6  # is_normalized: how far a row's norm may sit from 1

_CHUNK_BYTES = 1 << 20  # a jsonl corpus is parsed in line-aligned ranges of about this size


@dataclass(frozen=True)
class EmbeddingRecord:
    """One utterance: the row type of `Corpus.records`."""

    utt_id: str
    spk_id: str
    emotion: str | None
    vec: np.ndarray  # float64, shape (dim,)


class Corpus:
    """Embedding matrix plus each row's utterance id, speaker id and emotion.

    The constructor validates the columns (nonempty, equal lengths, unique
    utterance ids, finite vectors) and makes the matrix read-only, so the
    corpora that `take` and `strip_labels` derive can share or slice it.
    `row_of` maps each utterance id to its row and `speakers` each speaker
    to its rows in ascending order.
    """

    def __init__(self, vectors: np.ndarray, utt_ids: list[str], spk_ids: list[str], emotions: list[str | None]):
        vectors = np.asarray(vectors, dtype=np.float64)
        if not utt_ids:
            raise CorpusError("corpus has no records")
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise CorpusError(f"record {utt_ids[0]!r}: vec must be a nonempty list of numbers")
        if not len(vectors) == len(utt_ids) == len(spk_ids) == len(emotions):
            raise CorpusError("corpus columns differ in length")
        row_of: dict[str, int] = {}
        for i, utt_id in enumerate(utt_ids):
            if row_of.setdefault(utt_id, i) != i:
                raise CorpusError(f"duplicate utt_id {utt_id!r} (record {i})")
        # a row sum is finite unless the row holds inf/nan or overflows: recheck just those rows
        with np.errstate(over="ignore"):  # a finite row may sum past the float64 range
            suspect = np.flatnonzero(~np.isfinite(vectors.sum(axis=1)))
        bad = suspect[~np.isfinite(vectors[suspect]).all(axis=1)]
        if bad.size:
            raise CorpusError(f"non-finite entries in vector of {utt_ids[bad[0]]!r}")
        vectors.flags.writeable = False
        self.vectors = vectors
        self.utt_ids = list(utt_ids)
        self.spk_ids = list(spk_ids)
        self.emotions = list(emotions)
        self.row_of = row_of
        self.speakers: dict[str, list[int]] = {}
        for i, spk_id in enumerate(self.spk_ids):
            self.speakers.setdefault(spk_id, []).append(i)

    def __len__(self) -> int:
        return len(self.utt_ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def take(self, rows) -> "Corpus":
        """The corpus restricted to `rows`, in the order given."""
        rows = np.asarray(rows, dtype=np.intp)
        pick = lambda column: [column[i] for i in rows]
        return Corpus(self.vectors[rows], pick(self.utt_ids), pick(self.spk_ids), pick(self.emotions))

    # Row-object views for callers outside the package; its own code reads the columns.
    @cached_property
    def records(self) -> list[EmbeddingRecord]:
        return [EmbeddingRecord(*row) for row in zip(self.utt_ids, self.spk_ids, self.emotions, self.vectors)]

    def record_by_id(self) -> dict[str, EmbeddingRecord]:
        return {r.utt_id: r for r in self.records}

    def matrix(self) -> np.ndarray:
        """The (n, dim) vector matrix itself (read-only, rows in corpus order)."""
        return self.vectors


@dataclass(frozen=True)
class SynthSpec:
    """Controls for the synthetic embedding generator.

    The separation ratio emotion_offset_norm / within_noise governs how
    cleanly intra-speaker emotion groups separate; 0 yields no emotion
    structure at all.  emotion_dir_jitter in [0, 1] blends per-speaker
    private offset directions into the shared per-emotion directions
    (0 = fully shared across speakers, 1 = fully speaker-private).
    """

    n_speakers: int
    n_emotions: int
    utts_per_cell: int
    dim: int
    speaker_spread: float = 1.0
    emotion_offset_norm: float = 1.0
    within_noise: float = 0.25
    seed: int = 0
    emotion_dir_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.n_speakers < 1 or self.n_emotions < 1 or self.utts_per_cell < 1:
            raise ValueError("n_speakers, n_emotions, utts_per_cell must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for name in ("speaker_spread", "emotion_offset_norm"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0.0 < self.within_noise < math.inf:
            raise ValueError(f"within_noise must be > 0 and finite, got {self.within_noise}")
        if not 0.0 <= self.emotion_dir_jitter <= 1.0:
            raise ValueError("emotion_dir_jitter must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------- file formats

def save_corpus(corpus: Corpus, path: str, format: str = "jsonl") -> None:
    rows = zip(corpus.utt_ids, corpus.spk_ids, corpus.emotions, corpus.vectors)
    if format == "jsonl":
        write_jsonl(path, ({"utt_id": u, "spk_id": s, "emotion": e, "vec": v.tolist()} for u, s, e, v in rows))
    elif format == "bin":
        with open(path, "wb") as fh:
            fh.write(BIN_MAGIC)
            fh.write(struct.pack("<I", corpus.dim))
            for utt_id, spk_id, emotion, vec in rows:
                for s in (utt_id, spk_id):
                    b = s.encode("utf-8")
                    fh.write(struct.pack("<H", len(b)))
                    fh.write(b)
                if emotion is None:
                    fh.write(struct.pack("<B", 0))
                else:
                    b = emotion.encode("utf-8")
                    fh.write(struct.pack("<BH", 1, len(b)))
                    fh.write(b)
                fh.write(vec.astype("<f4").tobytes())
    else:
        raise CorpusError(f"unknown corpus format {format!r}")


def _jsonl_record(path: str, lineno: int, obj, dim: int | None) -> tuple:
    """(utt_id, spk_id, emotion, vec as float64) of one jsonl record; a record
    whose fields lack their json types, or whose vec is not `dim` long (when
    given), raises CorpusError naming path:line."""
    try:
        utt_id, spk_id, emotion, vec = obj["utt_id"], obj["spk_id"], obj.get("emotion"), obj["vec"]
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"{path}:{lineno}: malformed record ({exc})") from exc
    if type(utt_id) is not str or type(spk_id) is not str or type(emotion) not in (str, type(None)):
        raise CorpusError(f"{path}:{lineno}: utt_id and spk_id must be strings, emotion a string or null")
    if type(vec) is not list or not vec or not set(map(type, vec)) <= {float, int}:
        raise CorpusError(f"{path}:{lineno}: vec must be a nonempty list of numbers")
    if dim is not None and len(vec) != dim:
        raise CorpusError(f"{path}:{lineno}: dimension mismatch: {len(vec)} values, expected {dim}")
    try:  # an array per line, so the line's python floats are freed as the file is read
        return utt_id, spk_id, emotion, np.array(vec, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float64 range
        raise CorpusError(f"{path}:{lineno}: {exc}") from exc


def _jsonl_ranges(path: str) -> list[tuple[int, int, int]]:
    """(start, end, first line number) of byte ranges that cover the file,
    each starting at a line start and about _CHUNK_BYTES long; found by
    reading the file a block at a time."""
    ranges, start, line, pos, newlines = [], 0, 1, 0, 0
    with open(path, "rb") as fh:
        while block := fh.read(_CHUNK_BYTES):
            cut = block.rfind(b"\n") + 1
            newlines += block.count(b"\n")
            if cut:  # a range ends after the block's last newline
                ranges.append((start, pos + cut, line))
                start, line = pos + cut, newlines + 1
            pos += len(block)
    if start < pos:
        ranges.append((start, pos, line))
    return ranges


def _load_jsonl_range(path: str, dim: int | None, span: tuple[int, int | None, int]) -> tuple:
    """The columns of the records in one byte range of a jsonl corpus; with
    no `dim`, the range's first record fixes it."""
    rows, utt_ids, spk_ids, emotions = [], [], [], []
    for lineno, obj in read_jsonl(path, *span):
        utt_id, spk_id, emotion, row = _jsonl_record(path, lineno, obj, dim)
        dim = len(row)
        rows.append(row)
        utt_ids.append(utt_id)
        spk_ids.append(spk_id)
        emotions.append(emotion)
    return np.array(rows) if rows else np.empty((0, dim or 0)), utt_ids, spk_ids, emotions


def _load_jsonl(path: str) -> tuple:
    """The columns of a jsonl corpus.  The first record fixes the dimension;
    then fork_map parses the file's line-aligned ranges, one job each, so the
    first damaged line in file order names path:line for any worker count."""
    first = next(read_jsonl(path), None) if os.path.isfile(path) else None
    if first is None:  # no record, or a pipe, which can be read only once: front to back in-process
        return _load_jsonl_range(path, None, (0, None, 1))
    dim = len(_jsonl_record(path, *first, None)[3])
    parts = fork_map(lambda span: _load_jsonl_range(path, dim, span), _jsonl_ranges(path))
    columns = [[value for part in parts for value in part[c]] for c in (1, 2, 3)]
    return np.concatenate([part[0] for part in parts]), *columns


def _load_bin(path: str) -> tuple:
    """The vector, utterance, speaker and emotion columns of a bin corpus."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != BIN_MAGIC:
        raise CorpusError(f"{path}: bad magic bytes (expected {BIN_MAGIC!r})")
    if len(data) < 8:
        raise CorpusError(f"{path}: truncated header")
    (dim,) = struct.unpack_from("<I", data, 4)
    off = 8
    utt_ids, spk_ids, emotions, vec_offsets = [], [], [], []

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CorpusError(f"{path}: truncated {what} at offset {off}")
        chunk = data[off : off + n]
        off += n
        return chunk

    def text(what: str) -> str:
        (length,) = struct.unpack("<H", take(2, f"{what} length"))
        start = off
        try:
            return take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: {what} is not valid UTF-8 at offset {start + exc.start}") from exc

    while off < len(data):
        utt_ids.append(text("utt_id"))
        spk_ids.append(text("spk_id"))
        (flag,) = struct.unpack("<B", take(1, "emotion flag"))
        if flag not in (0, 1):
            raise CorpusError(f"{path}: bad emotion flag {flag} at offset {off - 1}")
        emotions.append(text("emotion") if flag else None)
        vec_offsets.append(off)
        take(4 * dim, "vector")
    # the float32 rows go straight into the float64 matrix, with no per-record arrays
    vectors = np.empty((len(vec_offsets), dim))
    for row, start in zip(vectors, vec_offsets):
        row[:] = np.frombuffer(data, dtype="<f4", count=dim, offset=start)
    return vectors, utt_ids, spk_ids, emotions


def load_corpus(path: str, format: str = "jsonl") -> Corpus:
    """Load and validate a corpus file in the declared format; a CorpusError names the file."""
    readers = {"jsonl": _load_jsonl, "bin": _load_bin}
    if format not in readers:
        raise CorpusError(f"unknown corpus format {format!r}")
    columns = readers[format](path)
    try:
        return Corpus(*columns)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ operations

def length_normalize(corpus: Corpus) -> Corpus:
    """Scale every vector to unit Euclidean norm (direction preserved).

    Each row's squared norm is one dot product, taken through the batched
    matmul so it is the very sum np.linalg.norm forms on a single row
    (np.linalg.norm(X, axis=1) sums in another order and differs in the
    last bit on some rows).
    """
    X = corpus.vectors
    norms = np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise CorpusError(f"zero-norm vector for utt_id {corpus.utt_ids[zero[0]]!r}")
    return Corpus(X / norms[:, None], corpus.utt_ids, corpus.spk_ids, corpus.emotions)


def is_normalized(corpus: Corpus) -> bool:
    X = corpus.vectors
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    n = np.linalg.norm(v)
    while n == 0.0:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
    return v / n


def emotion_names(n: int) -> list[str]:
    names = list(DEFAULT_EMOTIONS[:n])
    names += [f"emotion{i}" for i in range(len(names), n)]
    return names


def generate_synthetic(spec: SynthSpec) -> Corpus:
    """Draw a corpus with per-speaker Gaussian structure and emotion offsets.

    Each utterance is speaker_mean + emotion_offset + isotropic noise.  The
    per-emotion offset directions are shared across speakers (so emotion
    structure transfers to held-out speakers) unless emotion_dir_jitter
    blends in per-speaker private directions.
    """
    rng = np.random.default_rng(spec.seed)
    emotions = emotion_names(spec.n_emotions)

    speaker_means = rng.normal(scale=spec.speaker_spread, size=(spec.n_speakers, spec.dim))
    shared_dirs = np.stack([_unit_vector(rng, spec.dim) for _ in range(spec.n_emotions)])

    cell = spec.utts_per_cell
    vectors = np.empty((spec.n_speakers * spec.n_emotions * cell, spec.dim))
    utt_ids, spk_ids, labels = [], [], []
    for si in range(spec.n_speakers):
        spk_id = f"spk{si:03d}"
        for ei, emotion in enumerate(emotions):
            direction = shared_dirs[ei]
            if spec.emotion_dir_jitter > 0.0:
                private = _unit_vector(rng, spec.dim)
                mix = (1.0 - spec.emotion_dir_jitter) * direction + spec.emotion_dir_jitter * private
                n = np.linalg.norm(mix)
                direction = mix / n if n > 0 else private
            offset = spec.emotion_offset_norm * direction
            noise = rng.normal(scale=spec.within_noise, size=(cell, spec.dim))
            vectors[len(utt_ids) : len(utt_ids) + cell] = speaker_means[si] + offset + noise
            utt_ids += [f"{spk_id}_e{ei}_u{ui:04d}" for ui in range(cell)]
            spk_ids += [spk_id] * cell
            labels += [emotion] * cell
    return Corpus(vectors, utt_ids, spk_ids, labels)


def strip_labels(corpus: Corpus) -> Corpus:
    """The corpus with all emotion labels removed (pretraining view); shares the matrix."""
    return Corpus(corpus.vectors, corpus.utt_ids, corpus.spk_ids, [None] * len(corpus))


def warn_if_unnormalized(corpus: Corpus, context: str) -> None:
    if not is_normalized(corpus):
        warnings.warn(f"{context}: corpus vectors are not length-normalized", stacklevel=3)
