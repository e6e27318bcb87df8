"""Canonical JSON emission, aligned text tables and stable seed derivation.

Every artifact this toolkit writes goes through canonical_dumps so that
reruns with identical inputs produce byte-identical files: keys sorted,
floats printed with 17 significant digits (enough to round-trip a double).
"""

import hashlib
import math
from json.encoder import encode_basestring


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless for float64)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value not serializable: {x}")
    if x == int(x) and abs(x) < 1e16:
        # keep a trailing .0 so the value reads back as a float
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


def stable_seed(*parts) -> int:
    """Derive a u64 seed from arbitrary parts, stable across runs and platforms."""
    h = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def aligned_table(header: list[str], rows: list[list[str]]) -> str:
    """Plain-text table: each column left-justified to its widest cell, two spaces apart."""
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    return "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "\n" for r in [header, *rows])
