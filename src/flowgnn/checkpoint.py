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

import numpy as np

from . import serialize
from .errors import CheckpointError, ShapeMismatch
from .preprocess import Standardizer
from .serialize import FLOATS
from .training import TrainConfig, build_model

# the keys that hold a float array, in whichever record they appear
_FLOAT_FIELDS = frozenset({"values", "gamma", "beta", "running_mean", "running_var",
                           "oc_center", "mean", "std"})


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
    raw = serialize.load_path(path, CheckpointError)
    try:
        return _restore(raw)
    except (CheckpointError, ShapeMismatch) as exc:
        raise type(exc)(f"{path}: {exc}") from None


_SHAPE = {
    "config": dict,
    "model": {"in_dim": int, "num_classes?": (int, None)},
    "params": [{"name": str, "shape": list, "values": FLOATS}],
    "batchnorm": [{"gamma": FLOATS, "beta?": (FLOATS, None), "running_mean": FLOATS,
                   "running_var": FLOATS}],
    "oc_center?": (FLOATS, None),
    "preprocess?": ({"kept_columns": [int], "num_columns?": (int, None), "mean": FLOATS,
                     "std": FLOATS}, None),
    "run_info?": (dict, None),
}


def _restore(raw):
    raw = serialize.checked(raw, _SHAPE, "", CheckpointError)
    try:
        config = TrainConfig.from_dict(raw["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"config: {exc}") from None
    try:
        # the rng only shapes initial weights, which are overwritten below
        model = build_model(config, raw["model"]["in_dim"], raw["model"].get("num_classes"),
                            np.random.default_rng(0))
    except ValueError as exc:
        raise CheckpointError(f"model: {exc}") from None
    model.load_state(raw)
    preprocess = raw.get("preprocess")
    standardizer = None if preprocess is None else _standardizer(preprocess)
    return model, config, standardizer, raw.get("run_info") or {}


def _standardizer(raw: dict) -> Standardizer:
    kept, width = raw["kept_columns"], raw.get("num_columns")
    if any(b <= a for a, b in zip([-1] + kept, kept)):
        raise CheckpointError("preprocess.kept_columns must rise from column 0 up")
    if width is not None and kept and kept[-1] >= width:
        raise CheckpointError(f"preprocess.kept_columns reaches column {kept[-1]}, but "
                              f"preprocess.num_columns is {width}")
    for key in ("mean", "std"):
        if raw[key].size != len(kept):
            raise CheckpointError(f"preprocess.{key} has {raw[key].size} values, not one "
                                  f"per kept column ({len(kept)})")
    if not (raw["std"] > 0.0).all():
        raise CheckpointError("preprocess.std holds a value that is not above 0")
    return Standardizer.from_dict(raw)
