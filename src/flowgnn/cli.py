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
    grid_search,
    make_job,
    make_split,
    task_data,
    train,
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
    config = serialize.load_path(args.config)
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
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
        for graph, cells in zip(graphs, serialize.format_rows(matrix)):
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
    config = _load_config(args)
    spec = SynthSpec.from_dict(config)
    dataset = synth_generate(spec, seed=args.seed)
    out_dir = args.out or "."
    save_dataset(dataset, out_dir)
    logger.info("wrote %d synthetic samples to %s", len(dataset.samples), out_dir)
    return 0


def _protocol_from_config(config: dict) -> ProtocolSpec:
    task = config.get("task")
    variant = config.get("variant")
    if task is None or variant is None:
        raise UsageError("config needs 'task' and 'variant'")
    split = config.get("split", {})
    try:
        return ProtocolSpec(task, variant, config.get("feature_set"), **split)
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


def _train_setup(args):
    config = _load_config(args)
    if "data" not in config:
        raise UsageError("config needs 'data' (graphs.jsonl or dataset manifest)")
    spec = _protocol_from_config(config)
    try:
        train_config = TrainConfig.from_dict(
            {**config.get("train", {}), "variant": spec.variant, "seed": args.seed}
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    _, job, standardizer = _load_job(spec, train_config, config["data"], args.seed)
    return config, spec, job, standardizer


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
    return {
        "task": spec.task,
        "feature_set": spec.feature_set,
        "seed": seed,
        "data": data,
        "split": {
            "quota": spec.quota,
            "val_fraction": spec.val_fraction,
            "train_fraction": spec.train_fraction,
            "unsup_val_fraction": spec.unsup_val_fraction,
        },
    }


def cmd_train(args) -> int:
    config, spec, job, standardizer = _train_setup(args)
    result = train(job)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), result.model,
                    job.config, standardizer, _run_info(spec, args.seed, config["data"]))
    serialize.dump_path(
        {
            "best_epoch": result.best_epoch,
            "best_val": result.best_val,
            "stopped_epoch": result.stopped_epoch,
            "epochs": [rec.to_dict() for rec in result.history],
        },
        os.path.join(out_dir, "history.json"),
    )
    logger.info("trained %s/%s: best epoch %d, val %.4f",
                spec.task, spec.variant, result.best_epoch, result.best_val)
    return 0


def cmd_gridsearch(args) -> int:
    config, spec, job, standardizer = _train_setup(args)
    grid = config.get("grid") or DEFAULT_GRIDS[spec.variant]
    result = grid_search(grid, job, workers=args.workers)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), result.best_fit.model,
                    result.best_config, standardizer, _run_info(spec, args.seed, config["data"]))
    serialize.dump_path(result.best_config.to_dict(), os.path.join(out_dir, "best_config.json"))
    serialize.dump_path(
        {"task": spec.task, "variant": spec.variant, "cells": result.cells},
        os.path.join(out_dir, "gridsearch.json"),
    )
    logger.info("grid search over %d cells done; best val %.4f",
                len(result.cells), result.best_fit.best_val)
    return 0


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
        for part, entry in report["splits"].items():
            writer.writerow([part, entry["metric"], serialize.format_float(entry["value"])])
            logger.info("%s %s = %.4f", part, entry["metric"], entry["value"])
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
    rows = [[g.sample_id] + cells for g, cells in zip(graphs, serialize.format_rows(values))]
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
