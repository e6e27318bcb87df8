"""Embedding corpora: loading, saving, normalization, capping, and synthesis.

A corpus is a flat list of records (one utterance each: id, speaker,
optional emotion label, embedding vector) plus a derived speaker index.
Two interchangeable on-disk formats are supported: human-readable jsonl
and a compact binary layout for large pools.
"""

import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .serialize import canonical_dumps, format_float, stable_seed

BIN_MAGIC = b"EMB1"

DEFAULT_EMOTIONS = ("neutral", "happy", "sad", "angry")


class CorpusError(ValueError):
    """Raised when a corpus file or record violates the format contract."""


@dataclass
class EmbeddingRecord:
    utt_id: str
    spk_id: str
    emotion: str | None
    vec: np.ndarray  # float64, shape (dim,)


@dataclass
class Corpus:
    records: list[EmbeddingRecord]
    dim: int
    speakers: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.speakers:
            self.speakers = _build_speaker_index(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def record_by_id(self) -> dict[str, EmbeddingRecord]:
        return {r.utt_id: r for r in self.records}

    def matrix(self) -> np.ndarray:
        """All vectors as an (n, dim) float64 array (rows share corpus order)."""
        return np.stack([r.vec for r in self.records]) if self.records else np.zeros((0, self.dim))


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
        if self.speaker_spread < 0 or self.emotion_offset_norm < 0:
            raise ValueError("speaker_spread and emotion_offset_norm must be >= 0")
        if self.within_noise <= 0:
            raise ValueError("within_noise must be > 0")
        if not 0.0 <= self.emotion_dir_jitter <= 1.0:
            raise ValueError("emotion_dir_jitter must lie in [0, 1]")


def _build_speaker_index(records: list[EmbeddingRecord]) -> dict[str, list[int]]:
    index: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        index.setdefault(rec.spk_id, []).append(i)
    return index


def build_corpus(records: list[EmbeddingRecord]) -> Corpus:
    """Validate records (unique ids, consistent finite dims) and assemble a Corpus."""
    if not records:
        raise CorpusError("corpus has no records")
    first = records[0]
    if first.vec.ndim != 1 or first.vec.shape[0] < 1:
        raise CorpusError(f"record {first.utt_id!r}: vec must be a nonempty list of numbers")
    dim = first.vec.shape[0]
    seen: set[str] = set()
    for i, rec in enumerate(records):
        if rec.utt_id in seen:
            raise CorpusError(f"duplicate utt_id {rec.utt_id!r} (record {i})")
        seen.add(rec.utt_id)
        if rec.vec.ndim != 1 or rec.vec.shape[0] != dim:
            raise CorpusError(
                f"dimension mismatch: record {rec.utt_id!r} has dim "
                f"{rec.vec.shape[0] if rec.vec.ndim == 1 else rec.vec.shape}, expected {dim}"
            )
        if not np.all(np.isfinite(rec.vec)):
            raise CorpusError(f"non-finite entries in vector of {rec.utt_id!r}")
    return Corpus(records=records, dim=int(dim))


# ---------------------------------------------------------------- file formats

def _record_to_json_line(rec: EmbeddingRecord) -> str:
    return canonical_dumps(
        {
            "utt_id": rec.utt_id,
            "spk_id": rec.spk_id,
            "emotion": rec.emotion,
            "vec": [float(v) for v in rec.vec],
        }
    )


def save_corpus(corpus: Corpus, path: str, format: str = "jsonl") -> None:
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in corpus.records:
                fh.write(_record_to_json_line(rec))
                fh.write("\n")
    elif format == "bin":
        with open(path, "wb") as fh:
            fh.write(BIN_MAGIC)
            fh.write(struct.pack("<I", corpus.dim))
            for rec in corpus.records:
                for s in (rec.utt_id, rec.spk_id):
                    b = s.encode("utf-8")
                    fh.write(struct.pack("<H", len(b)))
                    fh.write(b)
                if rec.emotion is None:
                    fh.write(struct.pack("<B", 0))
                else:
                    b = rec.emotion.encode("utf-8")
                    fh.write(struct.pack("<BH", 1, len(b)))
                    fh.write(b)
                fh.write(rec.vec.astype("<f4").tobytes())
    else:
        raise CorpusError(f"unknown corpus format {format!r}")


def _load_jsonl(path: str) -> list[EmbeddingRecord]:
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
    return records


def _load_bin(path: str) -> list[EmbeddingRecord]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != BIN_MAGIC:
        raise CorpusError(f"{path}: bad magic bytes (expected {BIN_MAGIC!r})")
    if len(data) < 8:
        raise CorpusError(f"{path}: truncated header")
    (dim,) = struct.unpack_from("<I", data, 4)
    off = 8
    records = []

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
        utt_id = text("utt_id")
        spk_id = text("spk_id")
        (flag,) = struct.unpack("<B", take(1, "emotion flag"))
        emotion = None
        if flag == 1:
            emotion = text("emotion")
        elif flag != 0:
            raise CorpusError(f"{path}: bad emotion flag {flag} at offset {off - 1}")
        raw = take(4 * dim, "vector")
        vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        records.append(EmbeddingRecord(utt_id, spk_id, emotion, vec))
    return records


def load_corpus(path: str, format: str = "jsonl") -> Corpus:
    """Load and validate a corpus file in the declared format."""
    if format == "jsonl":
        records = _load_jsonl(path)
    elif format == "bin":
        records = _load_bin(path)
    else:
        raise CorpusError(f"unknown corpus format {format!r}")
    return build_corpus(records)


# ------------------------------------------------------------------ operations

def length_normalize(corpus: Corpus) -> Corpus:
    """Scale every vector to unit Euclidean norm (direction preserved)."""
    records = []
    for rec in corpus.records:
        norm = float(np.linalg.norm(rec.vec))
        if norm == 0.0:
            raise CorpusError(f"zero-norm vector for utt_id {rec.utt_id!r}")
        records.append(EmbeddingRecord(rec.utt_id, rec.spk_id, rec.emotion, rec.vec / norm))
    return Corpus(records=records, dim=corpus.dim)


def is_normalized(corpus: Corpus, tol: float = 1e-6) -> bool:
    norms = np.linalg.norm(corpus.matrix(), axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= tol))


def cap_per_speaker(corpus: Corpus, max_utts: int, seed: int) -> Corpus:
    """Keep at most max_utts records per speaker via seeded uniform sampling.

    Retained records preserve corpus order; the same seed always yields the
    same retained set.
    """
    if max_utts < 1:
        raise ValueError("max_utts must be >= 1")
    keep: set[int] = set()
    for spk_id, indices in corpus.speakers.items():
        if len(indices) <= max_utts:
            keep.update(indices)
        else:
            rng = np.random.default_rng(stable_seed(seed, "cap", spk_id))
            chosen = rng.choice(len(indices), size=max_utts, replace=False)
            keep.update(indices[i] for i in chosen)
    records = [corpus.records[i] for i in sorted(keep)]
    return Corpus(records=records, dim=corpus.dim)


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

    records = []
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
            noise = rng.normal(scale=spec.within_noise, size=(spec.utts_per_cell, spec.dim))
            for ui in range(spec.utts_per_cell):
                vec = speaker_means[si] + offset + noise[ui]
                records.append(
                    EmbeddingRecord(
                        utt_id=f"{spk_id}_e{ei}_u{ui:04d}",
                        spk_id=spk_id,
                        emotion=emotion,
                        vec=vec,
                    )
                )
    return build_corpus(records)


def strip_labels(corpus: Corpus) -> Corpus:
    """Copy of the corpus with all emotion labels removed (pretraining view)."""
    records = [EmbeddingRecord(r.utt_id, r.spk_id, None, r.vec) for r in corpus.records]
    return Corpus(records=records, dim=corpus.dim)


def subset(corpus: Corpus, indices) -> Corpus:
    records = [corpus.records[i] for i in indices]
    return build_corpus(records)


def warn_if_unnormalized(corpus: Corpus, context: str) -> None:
    if not is_normalized(corpus):
        warnings.warn(f"{context}: corpus vectors are not length-normalized", stacklevel=3)


def corpus_fingerprint(corpus: Corpus) -> str:
    """Content hash over ids, labels, and 17-digit vector reprs."""
    import hashlib

    h = hashlib.sha256()
    for rec in corpus.records:
        h.update(rec.utt_id.encode())
        h.update(rec.spk_id.encode())
        h.update((rec.emotion or "").encode())
        h.update(",".join(format_float(float(v)) for v in rec.vec).encode())
    return h.hexdigest()
