"""Deterministic JSON writing with round-trip-exact floats.

Floats are rendered with 17 significant digits, which is enough to
reconstruct any 64-bit value bit-exactly on parse. Output bytes are a pure
function of the object, so identical runs produce identical files.
"""

from __future__ import annotations

import json
import math
from typing import Any, IO

import numpy as np


def _format_finite(x: float) -> str:
    if x.is_integer() and abs(x) < 1e16:
        # keep e.g. 2.0 readable instead of scientific notation
        return repr(x)
    return format(x, ".17g")


def format_float(x: float) -> str:
    if x != x or math.isinf(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return _format_finite(float(x))


def _check_finite(array: np.ndarray) -> None:
    """Raise format_float's error for the first non-finite entry, if any."""
    finite = np.isfinite(array)
    if not finite.all():
        format_float(float(array[~finite][0]))


def format_rows(matrix: np.ndarray) -> list[list[str]]:
    """A 2-d float array as text cells, one list per row, each cell as
    format_float writes it; finiteness is checked once for the array."""
    _check_finite(matrix)
    return [list(map(_format_finite, row)) for row in matrix.tolist()]


def _encode_leaves(values: list, text, out: list[str]) -> None:
    """An ndarray's nested lists, one join per innermost list."""
    if values and isinstance(values[0], list):
        out.append("[")
        for i, item in enumerate(values):
            if i:
                out.append(", ")
            _encode_leaves(item, text, out)
        out.append("]")
    else:
        out.append("[" + ", ".join(map(text, values)) + "]")


def _encode(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim:
        _check_finite(obj)
        _encode_leaves(obj.tolist(), _format_finite, out)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.ndim:
        _encode_leaves(obj.tolist(), str, out)
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _encode(val, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def dump(obj: Any, fp: IO[str]) -> None:
    fp.write(dumps(obj))
    fp.write("\n")


def dump_path(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        dump(obj, fp)


def load_path(path) -> Any:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)
