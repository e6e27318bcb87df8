"""Canonical JSON emission and reading, aligned text tables and stable seed derivation.

Every JSON artifact this toolkit writes goes through write_jsonl, one
canonical_dumps line per object, so that reruns with identical inputs produce
byte-identical files.  canonical_dumps is one json.JSONEncoder: keys sorted, no
spaces, non-ASCII text written as is, and each float as Python's repr, the
shortest text that reads back as the same double; NaN and infinity raise
ValueError.  read_json and read_jsonl read them back, whatever text a number
was written with, and raise CorpusError naming the file (and line) on damage,
an object that repeats a key included; json_typed checks the type of a value
they return.
"""

import hashlib
import io
import json


class CorpusError(ValueError):
    """Raised when an input file or record violates the format contract."""


def _unique_keys(pairs: list) -> dict:
    """A json object's dict; a key it repeats raises ValueError, since
    json.loads would keep the last value and drop the others unseen."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # every json text read goes through it


def _plain(obj):
    """A 0-d numpy value (a numpy scalar) as its Python value, for the encoder's
    `default`; anything else json cannot encode raises TypeError."""
    if getattr(obj, "ndim", None) == 0:
        return obj.item()
    raise TypeError(f"not canonically serializable: {type(obj).__name__}")


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, default=_plain
)


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, no spaces, floats as their shortest round-trip text."""
    return _ENCODER.encode(obj)


def write_jsonl(path: str, objs) -> None:
    """Write each object as one canonical json line; a .json artifact is the one-object case."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(canonical_dumps(obj))
            fh.write("\n")


def read_json(path: str, what: str) -> dict:
    """The json object in the file at `path`; `what` names it in the CorpusError
    that invalid UTF-8, malformed json, a repeated key or a non-object raises."""
    try:
        with open(path, "rb") as fh:
            obj = _DECODER.decode(fh.read().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # invalid UTF-8, malformed, too deeply nested or a repeated key
        raise CorpusError(f"{path}: malformed {what} ({exc})") from exc
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}: {what} must be a json object, not {type(obj).__name__}")
    return obj


def read_jsonl(path: str, start: int = 0, end: int | None = None, first_line: int = 1):
    """Yield (line number, json value) for each nonblank line of the file at
    `path`, or of its bytes [start, end) numbered from `first_line`, where
    `start` is a line start; invalid UTF-8, malformed json or a repeated key
    raises CorpusError naming path:line."""
    with open(path, "rb") as fh:
        if start:  # a pipe cannot seek, even to where it is
            fh.seek(start)
        lines = fh if end is None else io.BytesIO(fh.read(end - start))
        for lineno, raw in enumerate(lines, start=first_line):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not valid UTF-8 at byte {exc.start}") from exc
            if not line:
                continue
            try:
                value = _DECODER.decode(line)
            except (ValueError, RecursionError) as exc:  # malformed, too deeply nested or a repeated key
                raise CorpusError(f"{path}:{lineno}: malformed json ({getattr(exc, 'msg', exc)})") from exc
            yield lineno, value


def json_typed(value, *types):
    """`value` if its type is exactly one of `types`, so a bool is not an int
    and "1.5" is not a float; otherwise TypeError."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {type(value).__name__}")
    return value


def stable_seed(*parts) -> int:
    """Derive a u64 seed from arbitrary parts, stable across runs and platforms."""
    h = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def aligned_table(header: list[str], rows: list[list[str]]) -> str:
    """Plain-text table: each column left-justified to its widest cell, two spaces apart."""
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "\n" for r in [header, *rows])
