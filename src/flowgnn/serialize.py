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

`checked` holds the one rule for reading JSON input: each reader declares
its format's shape as data, and a value that does not fit is reported as
`<path> must be <rule>, not <value>` or `<path> is missing`.
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


def load_path(path, error=ValueError) -> Any:
    """The JSON value in a file; text that is not UTF-8 JSON raises error
    naming the file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise error(f"{path}: not JSON: {exc}") from None


FLOATS = object()  # the shape of a float array, as decode_floats reads it
_RULES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
          float: "a number", bool: "true or false"}


def _walk(value, shape, where: str):
    if shape is FLOATS:
        try:
            return decode_floats(value)
        except ValueError as exc:
            raise ValueError(f"{where} {exc}") from None
    if isinstance(shape, tuple):
        if value is None and None in shape:
            return None
        options = [option for option in shape if option is not None]
        for option in options:
            try:
                return _walk(value, option, where)
            except ValueError:
                if len(options) == 1:
                    raise
    elif isinstance(shape, list) and isinstance(value, list):
        return [_walk(item, shape[0], f"{where}[{i}]") for i, item in enumerate(value)]
    elif isinstance(shape, dict) and isinstance(value, dict):
        out = dict(value)
        for key, option in shape.items():
            name = key.rstrip("?")
            path = f"{where}.{name}" if where else name
            if name in value:
                out[name] = _walk(value[name], option, path)
            elif not key.endswith("?"):
                raise ValueError(f"{path} is missing")
        return out
    elif isinstance(shape, type) and (shape is bool or not isinstance(value, bool)) and \
            isinstance(value, (int, float) if shape is float else shape):
        return value
    shown = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
    raise ValueError(f"{where or 'the file'} must be {_rule(shape)}, not {shown}")


def _rule(shape) -> str:
    if isinstance(shape, tuple):
        return " or ".join(_rule(option) for option in shape if option is not None)
    if isinstance(shape, list):  # "an array of strings"; "an array" of objects or arrays
        return f"an array of {_RULES[shape[0]].split()[-1]}s" if shape[0] in (str, int, float) \
            else "an array"
    return "an object" if isinstance(shape, dict) else _RULES[shape]


def checked(value, shape, where: str, error):
    """value with every FLOATS field decoded, once it fits shape: a JSON
    type (true and false only for bool; a float may be an integer); FLOATS;
    a tuple of alternatives, where None admits null; [shape], an array of
    such values; or {key: shape}, an object whose "key?" entries may be
    absent and whose unlisted keys pass as they are. A misfit raises
    error("<path> must be <rule>, not <value>") or error("<path> is
    missing"), the path starting below where."""
    try:
        return _walk(value, shape, where)
    except ValueError as exc:
        raise error(str(exc)) from None
