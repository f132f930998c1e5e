"""Deterministic JSON and CSV text with round-trip-exact floats.

Every float is written as Python's `repr`, the shortest text that parses
back to the same 64-bit value; `json` and `csv.writer` both spell floats
that way. Non-finite values are rejected. Output bytes are a pure function
of the object, so identical runs produce identical files, and files written
with more digits by earlier versions load to the same values.

`encode_floats`/`decode_floats` hold a whole float array as one base64
string of its little-endian float64 bytes instead: exact, half the size of
the text, and read back without parsing decimals. Checkpoints store their
arrays that way.
"""

from __future__ import annotations

import base64
import binascii
import json
from typing import Any, IO

import numpy as np


def _plain(obj: Any) -> Any:
    """ndarrays and numpy scalars as the lists and Python numbers json writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, default=_plain, allow_nan=False, ensure_ascii=False)


def encode_floats(values) -> str:
    """A float array as base64 text (standard alphabet, padded) of its
    little-endian float64 bytes, in C order; non-finite values are rejected."""
    array = np.ascontiguousarray(values, dtype="<f8")
    if not np.isfinite(array).all():
        raise ValueError("non-finite value cannot be serialized")
    return base64.b64encode(array.tobytes()).decode("ascii")


def decode_floats(stored) -> np.ndarray:
    """encode_floats' text, or the JSON number list that earlier versions
    wrote in its place, as a flat float64 array. Raises ValueError saying
    what is wrong, as a phrase that follows the field's name."""
    if isinstance(stored, str):
        try:
            raw = base64.b64decode(stored, validate=True)
        except binascii.Error as exc:
            raise ValueError(f"is not base64 text ({exc})") from None
        if len(raw) % 8:
            raise ValueError(f"decodes to {len(raw)} bytes, not a multiple of 8")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    else:
        try:
            values = np.array(stored) if isinstance(stored, list) else None
        except ValueError:  # ragged nesting
            values = None
        if values is None or values.ndim != 1 or (values.size and values.dtype.kind not in "iuf"):
            raise ValueError("is neither base64 text nor a list of numbers")
        values = values.astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("holds a non-finite value")
    return values


def finite_rows(matrix) -> list[list[float]]:
    """A float matrix as rows of Python floats for csv.writer, which spells
    each as its repr; raises ValueError naming the first non-finite entry."""
    matrix = np.asarray(matrix, dtype=np.float64)
    finite = np.isfinite(matrix)
    if not finite.all():
        raise ValueError(f"non-finite value cannot be serialized: {float(matrix[~finite][0])!r}")
    return matrix.tolist()


def dump(obj: Any, fp: IO[str]) -> None:
    fp.write(dumps(obj))
    fp.write("\n")


def dump_path(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        dump(obj, fp)


def load_path(path) -> Any:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)
