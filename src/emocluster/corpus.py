"""Embedding corpora: loading, saving, normalization, and synthesis.

A corpus is column-oriented: one (n, dim) float64 matrix of embedding
vectors, parallel lists of utterance ids, speaker ids and optional emotion
labels, and a map from each speaker to its row indices.  Stages select
utterances by row (`Corpus.take`).  Two interchangeable on-disk formats are
supported: human-readable jsonl and a compact binary layout for large pools.
"""

import json
import math
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .serialize import canonical_dumps

BIN_MAGIC = b"EMB1"

DEFAULT_EMOTIONS = ("neutral", "happy", "sad", "angry")


class CorpusError(ValueError):
    """Raised when a corpus file or record violates the format contract."""


@dataclass(frozen=True)
class EmbeddingRecord:
    """One utterance: what the jsonl parser reads and `Corpus.records` yields."""

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


@dataclass
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

    def validate(self) -> None:
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


def build_corpus(records: list[EmbeddingRecord]) -> Corpus:
    """Check that every record's vector has the first one's shape, then assemble a Corpus."""
    if not records:
        raise CorpusError("corpus has no records")
    shape = records[0].vec.shape
    for rec in records:
        if rec.vec.shape != shape:
            raise CorpusError(f"dimension mismatch: record {rec.utt_id!r} has shape {rec.vec.shape}, expected {shape}")
    return Corpus(
        np.stack([r.vec for r in records]),
        [r.utt_id for r in records],
        [r.spk_id for r in records],
        [r.emotion for r in records],
    )


# ---------------------------------------------------------------- file formats

def save_corpus(corpus: Corpus, path: str, format: str = "jsonl") -> None:
    rows = zip(corpus.utt_ids, corpus.spk_ids, corpus.emotions, corpus.vectors)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for utt_id, spk_id, emotion, vec in rows:
                fh.write(canonical_dumps({"utt_id": utt_id, "spk_id": spk_id, "emotion": emotion, "vec": vec.tolist()}))
                fh.write("\n")
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


def _load_jsonl(path: str) -> Corpus:
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not valid UTF-8 at byte {exc.start}") from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed json ({exc.msg})") from exc
            try:
                vec = np.asarray(obj["vec"], dtype=np.float64)
                rec = EmbeddingRecord(
                    utt_id=str(obj["utt_id"]),
                    spk_id=str(obj["spk_id"]),
                    emotion=None if obj.get("emotion") is None else str(obj["emotion"]),
                    vec=vec,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed record ({exc})") from exc
            records.append(rec)
    return build_corpus(records)


def _load_bin(path: str) -> Corpus:
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
    return Corpus(vectors, utt_ids, spk_ids, emotions)


def load_corpus(path: str, format: str = "jsonl") -> Corpus:
    """Load and validate a corpus file in the declared format."""
    if format == "jsonl":
        return _load_jsonl(path)
    if format == "bin":
        return _load_bin(path)
    raise CorpusError(f"unknown corpus format {format!r}")


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


def is_normalized(corpus: Corpus, tol: float = 1e-6) -> bool:
    X = corpus.vectors
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    return bool(np.all(np.abs(norms - 1.0) <= tol))


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
    spec.validate()
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
