"""Model checkpoints as deterministic JSON files.

A checkpoint holds everything needed to score raw graphs again: the
train config, every parameter tensor, batch-norm running statistics,
the one-class center and the fitted standardizer. Floats are written as
their shortest round-trip text, so save/load round-trips bit-exactly and
identical runs write identical bytes; checkpoints that earlier versions
wrote with 17 significant digits load to the same model.
"""

from __future__ import annotations

import numpy as np

from . import serialize
from .preprocess import Standardizer
from .training import TrainConfig, build_model


def checkpoint_dict(model, config: TrainConfig, standardizer: Standardizer | None = None,
                    run_info: dict | None = None) -> dict:
    return {
        "variant": config.variant,
        "pool": config.pool,
        "num_layers": config.num_layers,
        "config": config.to_dict(),
        "model": {"in_dim": model.in_dim, "num_classes": model.num_classes},
        **model.state(),  # params, batchnorm and oc_center
        "preprocess": None if standardizer is None else standardizer.to_dict(),
        "run_info": run_info or {},
    }


def save_checkpoint(path, model, config: TrainConfig,
                    standardizer: Standardizer | None = None,
                    run_info: dict | None = None) -> None:
    serialize.dump_path(checkpoint_dict(model, config, standardizer, run_info), path)


def load_checkpoint(path):
    """Returns (model, config, standardizer, run_info)."""
    raw = serialize.load_path(path)
    config = TrainConfig.from_dict(raw["config"])
    # the rng only shapes initial weights, which are overwritten below
    model = build_model(config, int(raw["model"]["in_dim"]),
                        raw["model"]["num_classes"], np.random.default_rng(0))
    model.load_state(raw)
    preprocess = raw.get("preprocess")
    standardizer = None if preprocess is None else Standardizer.from_dict(preprocess)
    return model, config, standardizer, raw.get("run_info", {})
