"""Model checkpoints as deterministic JSON files.

A checkpoint holds everything needed to score raw graphs again: the
train config, every parameter tensor, batch-norm running statistics,
the one-class center and the fitted standardizer. Each float array is one
base64 string of its little-endian float64 bytes (`serialize.encode_floats`),
so save/load round-trips bit-exactly, identical runs write identical bytes
and a reload parses no decimal text. Names, shapes, kept columns, the
config and run info stay plain JSON. Checkpoints that earlier versions
wrote, with every array a JSON number list, load to the same model.
"""

from __future__ import annotations

import json

import numpy as np

from . import serialize
from .errors import CheckpointError, ShapeMismatch
from .preprocess import Standardizer
from .training import TrainConfig, build_model

# the keys that hold a float array, in whichever record they appear
_FLOAT_FIELDS = frozenset({"values", "gamma", "beta", "running_mean", "running_var",
                           "oc_center", "mean", "std"})

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _encoded(state):
    """A state dict, or a list of them, with each float array as base64 text."""
    if isinstance(state, list):
        return [_encoded(item) for item in state]
    if not isinstance(state, dict):
        return state
    return {key: serialize.encode_floats(value) if key in _FLOAT_FIELDS and value is not None
            else _encoded(value) for key, value in state.items()}


def checkpoint_dict(model, config: TrainConfig, standardizer: Standardizer | None = None,
                    run_info: dict | None = None) -> dict:
    return {
        "variant": config.variant,
        "pool": config.pool,
        "num_layers": config.num_layers,
        "config": config.to_dict(),
        "model": {"in_dim": model.in_dim, "num_classes": model.num_classes},
        **_encoded(model.state()),  # params, batchnorm and oc_center
        "preprocess": None if standardizer is None else _encoded(standardizer.to_dict()),
        "run_info": run_info or {},
    }


def save_checkpoint(path, model, config: TrainConfig,
                    standardizer: Standardizer | None = None,
                    run_info: dict | None = None) -> None:
    serialize.dump_path(checkpoint_dict(model, config, standardizer, run_info), path)


def load_checkpoint(path):
    """Returns (model, config, standardizer, run_info). The file is checked
    once, as it is read: a field that is missing, of the wrong type or not
    decodable raises CheckpointError, and arrays that do not fit the model
    its config builds raise ShapeMismatch, each naming the file and field."""
    try:
        return _restore(serialize.load_path(path))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not JSON: {exc}") from None
    except (CheckpointError, ShapeMismatch) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _restore(raw):
    raw = _typed(raw, dict, "the checkpoint")
    config = _get(raw, "config", dict, "config")
    try:
        config = TrainConfig.from_dict(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"config: {exc}") from None
    dims = _get(raw, "model", dict, "model")
    in_dim = _get(dims, "in_dim", int, "model.in_dim")
    try:
        # the rng only shapes initial weights, which are overwritten below
        model = build_model(config, in_dim, _get(dims, "num_classes", int, "model.num_classes",
                                                 optional=True), np.random.default_rng(0))
    except ValueError as exc:
        raise CheckpointError(f"model: {exc}") from None
    params = []
    for i, entry in enumerate(_get(raw, "params", list, "params")):
        where = f"params[{i}]"
        entry = _typed(entry, dict, where)
        params.append({"name": _get(entry, "name", str, f"{where}.name"),
                       "shape": _get(entry, "shape", list, f"{where}.shape"),
                       "values": _get(entry, "values", np.ndarray, f"{where}.values")})
    norms = []
    for i, entry in enumerate(_get(raw, "batchnorm", list, "batchnorm")):
        entry = _typed(entry, dict, f"batchnorm[{i}]")
        norms.append({key: _get(entry, key, np.ndarray, f"batchnorm[{i}].{key}",
                                optional=key == "beta")
                      for key in ("gamma", "beta", "running_mean", "running_var")})
    model.load_state({"params": params, "batchnorm": norms,
                      "oc_center": _get(raw, "oc_center", np.ndarray, "oc_center",
                                        optional=True)})
    preprocess = _get(raw, "preprocess", dict, "preprocess", optional=True)
    standardizer = None if preprocess is None else _standardizer(preprocess)
    return model, config, standardizer, _get(raw, "run_info", dict, "run_info",
                                             optional=True) or {}


def _standardizer(raw: dict) -> Standardizer:
    kept = _ints(_get(raw, "kept_columns", list, "preprocess.kept_columns"),
                 "preprocess.kept_columns")
    if any(b <= a for a, b in zip([-1] + kept, kept)):
        raise CheckpointError("preprocess.kept_columns must rise from column 0 up")
    width = _get(raw, "num_columns", int, "preprocess.num_columns", optional=True)
    if width is not None and kept and kept[-1] >= width:
        raise CheckpointError(f"preprocess.kept_columns reaches column {kept[-1]}, but "
                              f"preprocess.num_columns is {width}")
    arrays = {}
    for key in ("mean", "std"):
        arrays[key] = _get(raw, key, np.ndarray, f"preprocess.{key}")
        if arrays[key].size != len(kept):
            raise CheckpointError(f"preprocess.{key} has {arrays[key].size} values, not one "
                                  f"per kept column ({len(kept)})")
    if not (arrays["std"] > 0.0).all():
        raise CheckpointError("preprocess.std holds a value that is not above 0")
    return Standardizer.from_dict({"kept_columns": kept, **arrays, "num_columns": width})


def _get(record: dict, key: str, kind, where: str, optional: bool = False):
    """record[key] of the given JSON type, or decoded to a float array for
    kind np.ndarray; an optional field may be null or absent (None)."""
    value = record.get(key)
    if value is None:
        if optional:
            return None
        raise CheckpointError(f"lacks {where}" if key not in record else f"{where} is null")
    return _typed(value, kind, where)


def _typed(value, kind, where: str):
    if kind is np.ndarray:
        try:
            return serialize.decode_floats(value)
        except ValueError as exc:
            raise CheckpointError(f"{where} {exc}") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise CheckpointError(f"{where} must be {_JSON_TYPES[kind]}, "
                              f"not {_JSON_TYPES[type(value)]}")
    return value


def _ints(values: list, where: str) -> list:
    for value in values:
        _typed(value, int, f"each entry of {where}")
    return values
