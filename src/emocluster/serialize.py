"""Canonical JSON emission and reading, aligned text tables and stable seed derivation.

Every JSON artifact this toolkit writes goes through write_jsonl, one
canonical_dumps line per object, so that reruns with identical inputs produce
byte-identical files: keys sorted, floats printed with 17 significant digits
(enough to round-trip a double).  read_json and read_jsonl read them back and
raise CorpusError naming the file (and line) on damage, an object that
repeats a key included; json_typed checks the type of a value they return.
"""

import hashlib
import io
import json
import math
from json.encoder import encode_basestring


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


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value not serializable: {x}")
    if x == int(x) and abs(x) < 1e17:
        # keep a trailing .0 so the value reads back as a float (from 1e17 on, .17g writes an exponent)
        return f"{x:.1f}"
    return format(x, ".17g")


def _format_floats(values: list) -> str:
    """format_float over a list of floats, joined by commas: one %-format
    call for the whole list unless a value is integral or non-finite."""
    if all(map(math.isfinite, values)) and not any(map(float.is_integer, values)):
        # "%.17g" prints the digits of format(x, ".17g")
        return ",".join(["%.17g"] * len(values)) % tuple(values)
    return ",".join(map(format_float, values))


def _encode(obj, out: list[str]) -> None:
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        obj = obj.item()  # numpy scalars -> native python
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        # what json.dumps(obj, ensure_ascii=False) calls, without building a JSONEncoder
        out.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"canonical json requires string keys, got {key!r}")
            if not first:
                out.append(",")
            _encode(key, out)
            out.append(":")
            _encode(obj[key], out)
            first = False
        out.append("}")
    elif type(obj) is list and obj and set(map(type, obj)) == {float}:
        out.append("[" + _format_floats(obj) + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"not canonically serializable: {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize to deterministic JSON: sorted keys, 17-digit floats."""
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


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
