"""Deterministic JSON and CSV text with round-trip-exact floats.

Every float is written as Python's `repr`, the shortest text that parses
back to the same 64-bit value; `json` and `csv.writer` both spell floats
that way. Non-finite values are rejected. Output bytes are a pure function
of the object, so identical runs produce identical files, and files written
with more digits by earlier versions load to the same values.
"""

from __future__ import annotations

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
