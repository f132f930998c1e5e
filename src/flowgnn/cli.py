"""Command-line entry point.

Commands: extract, synth, train, gridsearch, evaluate, score. Every
command is deterministic given --seed; diagnostics go to stderr as
single timestamped lines and machine-readable output goes only to the
declared files or stdout. Exit codes: 0 success, 2 usage or config
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import serialize
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import FlowDataError, NeuralNetError
from .graphs import (
    STRUCTURAL_DIM,
    STRUCTURAL_NAMES,
    build_flow_graph,
    feature_matrix,
    read_graphs_jsonl,
    write_graphs_jsonl,
)
from .ingest import LABEL_LEVELS, FlowDataset, load_dataset, save_dataset
from .synth import SynthSpec, synth_generate
from .training import (
    DEFAULT_GRIDS,
    ProtocolSpec,
    TrainConfig,
    TrainJob,
    _judge,
    evaluate_metrics,
    grid_configs,
    grid_search,
    make_job,
    make_split,
    task_data,
)

logger = logging.getLogger("flowgnn")


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _setup_logging() -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(
        fmt="%(asctime)s %(levelname)s %(name)s: %(message)s",
        datefmt="%Y-%m-%dT%H:%M:%S",
    ))
    root = logging.getLogger()
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    """--set a.b=value, with the value parsed as JSON when possible."""
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"--set path {key!r} crosses a non-object value")
        node[parts[-1]] = value
    return config


def _load_config(args) -> dict:
    if not args.config:
        raise UsageError("--config is required for this command")
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    config = serialize.load_path(args.config, UsageError)
    if not isinstance(config, dict):
        raise UsageError(f"{args.config}: a config is a JSON object, not {type(config).__name__}")
    return _apply_overrides(config, args.set or [])


def _load_graph_data(path) -> tuple[list, FlowDataset | None]:
    """graphs.jsonl gives graphs only; a dataset manifest also keeps flows."""
    if not os.path.exists(path):
        raise UsageError(f"data file not found: {path}")
    if path.endswith(".jsonl"):
        return read_graphs_jsonl(path), None
    dataset = load_dataset(path)
    return [build_flow_graph(s) for s in dataset.samples], dataset


def _write_feature_csv(path, graphs, matrix, names) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["sample_id", *LABEL_LEVELS, *names])
        for graph, cells in zip(graphs, serialize.finite_rows(matrix)):
            labels = {} if graph.labels is None else graph.labels.to_dict()
            writer.writerow([graph.sample_id, *(labels.get(level, "") for level in LABEL_LEVELS),
                             *cells])


# -- commands -------------------------------------------------------------------


def cmd_extract(args) -> int:
    if not args.manifest:
        raise UsageError("extract needs --manifest")
    if not os.path.exists(args.manifest):
        raise UsageError(f"manifest not found: {args.manifest}")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    dataset = load_dataset(args.manifest)
    logger.info("loaded %d samples with %d raw features",
                len(dataset.samples), dataset.feature_dim)

    graphs = [build_flow_graph(s) for s in dataset.samples]
    write_graphs_jsonl(graphs, os.path.join(out_dir, "graphs.jsonl"))

    # the flow and graph sets are the two column blocks of the combined rows
    rows = feature_matrix(graphs, "combined", dataset)
    names = graphs[0].feature_names + STRUCTURAL_NAMES
    flow_dim = len(names) - STRUCTURAL_DIM
    for feature_set, columns in (("flow", slice(flow_dim)), ("graph", slice(flow_dim, None)),
                                 ("combined", slice(None))):
        _write_feature_csv(os.path.join(out_dir, f"features_{feature_set}.csv"),
                           graphs, rows[:, columns], names[columns])
    logger.info("wrote %d graphs and feature sets (%d/%d/%d columns) to %s",
                len(graphs), flow_dim, STRUCTURAL_DIM, len(names), out_dir)
    return 0


def cmd_synth(args) -> int:
    try:
        spec = SynthSpec.from_dict(_load_config(args))
    except ValueError as exc:
        raise UsageError(f"{args.config}: {exc}") from None
    dataset = synth_generate(spec, seed=args.seed)
    out_dir = args.out or "."
    save_dataset(dataset, out_dir)
    logger.info("wrote %d synthetic samples to %s", len(dataset.samples), out_dir)
    return 0


def _protocol_from_config(config: dict) -> ProtocolSpec:
    try:
        return ProtocolSpec(config.get("task"), config.get("variant"), config.get("feature_set"),
                            **config.get("split", {}))
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _load_job(spec: ProtocolSpec, train_config: TrainConfig, data_path, seed: int | None,
              standardizer=None) -> tuple[list, TrainJob, object]:
    """Graphs from data_path and their job: split by seed (None: no split,
    as scoring reads no labels), standardized by the given standardizer or
    one fit on the split's training rows."""
    graphs, dataset = _load_graph_data(data_path)
    raw_features, labels_by_level = task_data(spec, graphs, dataset)
    split = None if seed is None else make_split(spec, labels_by_level, seed)
    job, standardizer = make_job(spec, train_config, split, graphs, raw_features,
                                 labels_by_level, standardizer=standardizer)
    return graphs, job, standardizer


def _load_model(args):
    """The checkpoint's model, train config and standardizer, and the
    protocol spec its run info records. A checkpoint saved without run info
    gets the default task of its variant, which is enough to score."""
    if not args.checkpoint or not os.path.exists(args.checkpoint):
        raise UsageError(f"checkpoint not found: {args.checkpoint}")
    model, train_config, standardizer, run_info = load_checkpoint(args.checkpoint)
    spec = _protocol_from_config({"task": "binary" if model.role == "clf" else "unsupervised",
                                  **run_info, "variant": train_config.variant})
    return model, train_config, standardizer, run_info, spec


def _run_info(spec: ProtocolSpec, seed: int, data: str) -> dict:
    split = {key: value for key, value in dataclasses.asdict(spec).items()
             if key not in ("task", "variant", "feature_set")}
    return {"task": spec.task, "feature_set": spec.feature_set, "seed": seed, "data": data,
            "split": split}


_RUN_CONFIG = {"data": str, "task": str, "variant": str, "feature_set?": (str, None),
               "split?": {"quota?": (int, None), "val_fraction?": (float, None),
                          "train_fraction?": float, "unsup_val_fraction?": float},
               "train?": dict}
_GRID_CONFIG = {**_RUN_CONFIG, "grid?": ({f"{key}?": list for key in TrainConfig().to_dict()},
                                         None)}


def cmd_train(args, gridsearch: bool = False) -> int:
    """Fit every cell of the grid (gridsearch) or of the one-cell grid, the
    train block alone (train). The train config and every grid cell are
    checked before any data loads."""
    config = serialize.checked(_load_config(args), _GRID_CONFIG if gridsearch else _RUN_CONFIG, "",
                               lambda message: UsageError(f"{args.config}: {message}"))
    spec = _protocol_from_config(config)
    grid = (config.get("grid") or DEFAULT_GRIDS[spec.variant]) if gridsearch else {}
    try:
        train_config = TrainConfig.from_dict(
            {**config.get("train", {}), "variant": spec.variant, "seed": args.seed}
        )
        grid_configs(grid, train_config)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    _, job, standardizer = _load_job(spec, train_config, config["data"], args.seed)
    result = grid_search(grid, job, workers=getattr(args, "workers", 1))
    fit = result.best_fit
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), fit.model, fit.config,
                    standardizer, _run_info(spec, args.seed, config["data"]))
    if gridsearch:
        serialize.dump_path(fit.config.to_dict(), os.path.join(out_dir, "best_config.json"))
        serialize.dump_path(
            {"task": spec.task, "variant": spec.variant, "cells": result.cells},
            os.path.join(out_dir, "gridsearch.json"),
        )
    else:
        serialize.dump_path(
            {
                "best_epoch": fit.best_epoch,
                "best_val": fit.best_val,
                "stopped_epoch": fit.stopped_epoch,
                "stop_reason": fit.stop_reason,
                "epochs": [rec.to_dict() for rec in fit.history],
            },
            os.path.join(out_dir, "history.json"),
        )
    logger.info("trained %s/%s over %d grid cells: best epoch %d, val %.4f", spec.task,
                spec.variant, len(result.cells), fit.best_epoch, fit.best_val)
    return 0


def cmd_gridsearch(args) -> int:
    return cmd_train(args, gridsearch=True)


def cmd_evaluate(args) -> int:
    model, train_config, standardizer, run_info, spec = _load_model(args)
    data_path = args.data or run_info.get("data")
    if not data_path:
        raise UsageError("evaluate needs --data (or a checkpoint that records it)")
    _, job, _ = _load_job(spec, train_config, data_path, run_info["seed"], standardizer)

    report = {
        "task": spec.task,
        "model": spec.variant,
        "splits": {
            part: evaluate_metrics(job, model, indices=getattr(job.split, part))
            for part in ("train", "val", "test")
        },
    }
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    serialize.dump_path(report, os.path.join(out_dir, "metrics.json"))
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["split", "metric", "value"])
        splits = report["splits"]
        values = serialize.finite_rows([[entry["value"]] for entry in splits.values()])
        for (part, entry), (value,) in zip(splits.items(), values):
            writer.writerow([part, entry["metric"], value])
            logger.info("%s %s = %.4f", part, entry["metric"], value)
    return 0


def cmd_score(args) -> int:
    model, train_config, standardizer, _, spec = _load_model(args)
    if not args.data:
        raise UsageError("score needs --data")
    graphs, job, _ = _load_job(spec, train_config, args.data, None, standardizer)
    # class probabilities, or anomaly scores as one column
    values = _judge(model, job.batch(np.arange(len(graphs))))[0].reshape(len(graphs), -1)
    if values.shape[1] == 1:
        header = ["sample_id", "score"]
    else:
        header = ["sample_id"] + [f"p_class_{i}" for i in range(values.shape[1])]
    rows = [[g.sample_id] + cells for g, cells in zip(graphs, serialize.finite_rows(values))]
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout)
    with out as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        writer.writerows(rows)
    logger.info("scored %d graphs", len(graphs))
    return 0


# -- argument parsing ---------------------------------------------------------


FLAGS = {
    "manifest": dict(help="dataset manifest JSON"),
    "checkpoint": dict(help="checkpoint JSON"),
    "data": dict(help="graphs.jsonl or dataset manifest"),
    "config": dict(help="JSON config file"),
    "seed": dict(type=int, default=0, help="root random seed (default 0)"),
    "set": dict(action="append", metavar="KEY=VALUE",
                help="override a config entry (dotted path)"),
    "workers": dict(type=int, default=1, help="parallel workers"),
    "out": dict(help="output directory or file"),
}

CONFIG_FLAGS = ("config", "seed", "set", "out")
CHECKPOINT_FLAGS = ("checkpoint", "data", "out")

# command: (help, the flags it reads); command X runs cmd_X, looked up by
# name when it runs, so a wrapper installed on this module later is called
COMMANDS = {
    "extract": ("flows to graphs.jsonl plus feature CSVs", ("manifest", "out")),
    "synth": ("generate a synthetic flow dataset from a --config spec", CONFIG_FLAGS),
    "train": ("train one model on one split", CONFIG_FLAGS),
    "gridsearch": ("exhaustive hyperparameter search", CONFIG_FLAGS + ("workers",)),
    "evaluate": ("metrics for a checkpoint on its splits", CHECKPOINT_FLAGS),
    "score": ("per-graph scores or class probabilities", CHECKPOINT_FLAGS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgnn",
        description="Flow-graph extraction, training and scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        logger.error("%s", exc)
        return 2
    except (FlowDataError, NeuralNetError, OSError, ValueError, KeyError) as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
