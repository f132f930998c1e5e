"""Training harness: early stopping, grid search and the repeated-split
evaluation protocol.

Every run is a pure function of (data, config, seed). Supervised tasks
draw a balanced per-class training quota and report weighted F1;
unsupervised detection trains on a stratified fraction of the data and
reports AUROC against the binary label. Model selection always uses the
validation split; test metrics are computed once, for the selected
configuration only.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Callable

import numpy as np

from . import serialize
from .errors import NumericalError
from .graphs import FlowGraph, feature_matrix
from .ingest import FlowDataset
from .metrics import MetricReport, auroc, per_class_precision_recall, weighted_f1
from .mlp import MLP_VARIANTS, DenseNetwork
from .model import (
    NUM_LAYERS,
    POOLS,
    ROLES,
    VARIANTS as GRAPH_VARIANTS,
    FlowGraphNetwork,
    GraphBatch,
    PreparedGraph,
    make_batch,
    propagation_matrices,
)
from .nn import TRAIN, Adam
from .preprocess import Standardizer, standardize_fit
from .splits import SplitPlan, supervised_split, unsupervised_split

logger = logging.getLogger(__name__)

# each variant's head, for code that holds a config; a model knows its own role
VARIANT_ROLES = dict(zip(GRAPH_VARIANTS + MLP_VARIANTS, 2 * ROLES))
SUPERVISED_TASKS = ("binary", "category", "family")

# hyperparameter search spaces; keys match TrainConfig on-disk names
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "clf": {
        "num_layers": [1, 2],
        "num_hidden": [16, 32, 64, 128],
        "learning_rate": [1e-3, 1e-2],
        "dropout": [0.0, 0.2, 0.4, 0.6],
        "pool": ["mean", "add", "max"],
    },
    "mlp": {
        "num_layers": [1, 2],
        "num_hidden": [16, 32, 64, 128],
        "l2": [0.0, 1e-1, 1e-2, 1e-3, 1e-4],
    },
}
DEFAULT_GRIDS["ae"] = dict(DEFAULT_GRIDS["clf"])
DEFAULT_GRIDS["oc"] = dict(DEFAULT_GRIDS["clf"])
DEFAULT_GRIDS["mlp_ae"] = dict(DEFAULT_GRIDS["mlp"])
DEFAULT_GRIDS["mlp_oc"] = dict(DEFAULT_GRIDS["mlp"])


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "clf"
    num_layers: int = 1
    num_hidden: int = 32
    learning_rate: float = 1e-3
    dropout: float = 0.0
    pool: str = "mean"
    lambda_: float = 1e-3
    l2: float = 0.0
    patience: int = 20
    max_epochs: int = 1000
    batch_size: int = 32
    seed: int = 0
    val_criterion: str = "auto"

    EXTERNAL_NAMES = {"lambda_": "lambda"}

    def __post_init__(self):
        def check(names, rule, ok, kind=numbers.Real):
            for name in names:
                value = getattr(self, name)  # a bool is no count and no rate
                if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                    raise ValueError(f"{self.EXTERNAL_NAMES.get(name, name)} must be {rule}, "
                                     f"got {value!r}")

        integer = numbers.Integral
        check(("variant",), f"one of {tuple(VARIANT_ROLES)}", VARIANT_ROLES.__contains__, str)
        check(("num_layers",), f"one of {NUM_LAYERS}", NUM_LAYERS.__contains__, integer)
        check(("pool",), f"one of {POOLS}", POOLS.__contains__, str)
        check(("num_hidden", "patience", "max_epochs", "batch_size"),
              "an integer of at least 1", lambda v: isinstance(v, integer) and v >= 1)
        check(("seed",), "an integer of at least 0", lambda v: isinstance(v, integer) and v >= 0)
        check(("learning_rate",), "a finite number above 0", lambda v: 0 < v < math.inf)
        check(("lambda_", "l2"), "a finite number of at least 0", lambda v: 0 <= v < math.inf)
        check(("dropout",), "a number in [0, 1)", lambda v: 0 <= v < 1)
        own = "f1" if VARIANT_ROLES[self.variant] == "clf" else "auroc"  # the role's metric
        if self.val_criterion not in ("auto", own):
            raise ValueError(f"val_criterion {self.val_criterion!r} does not fit variant "
                             f"{self.variant!r}; use 'auto' or {own!r}")

    def to_dict(self) -> dict:
        return {
            self.EXTERNAL_NAMES.get(name, name): getattr(self, name)
            for name in self.__dataclass_fields__
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        reverse = {v: k for k, v in cls.EXTERNAL_NAMES.items()}
        kwargs = {}
        for key, value in raw.items():
            name = reverse.get(key, key)
            if name not in cls.__dataclass_fields__:
                raise ValueError(f"unknown train config key {key!r}")
            kwargs[name] = value
        return cls(**kwargs)


def build_model(config: TrainConfig, in_dim: int, num_classes: int | None,
                rng: np.random.Generator):
    shared = dict(variant=config.variant, in_dim=in_dim, num_hidden=config.num_hidden,
                  num_layers=config.num_layers, rng=rng, num_classes=num_classes)
    if config.variant in GRAPH_VARIANTS:
        return FlowGraphNetwork(**shared, pool=config.pool, dropout_p=config.dropout,
                                weight_decay=config.lambda_)
    return DenseNetwork(**shared, l2=config.l2)


def labels_at_level(graphs: list[FlowGraph], level: str) -> np.ndarray:
    values = []
    for g in graphs:
        if g.labels is None or g.labels.at_level(level) is None:
            raise ValueError(f"graph {g.sample_id!r} lacks a {level} label")
        values.append(g.labels.at_level(level))
    return np.asarray(values, dtype=np.intp)


# -- single training run ------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_score: float

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "train_loss": self.train_loss, "val_score": self.val_score}


@dataclass
class FitResult:
    model: FlowGraphNetwork | DenseNetwork
    config: TrainConfig
    history: list[EpochRecord]
    best_epoch: int
    best_val: float
    stopped_epoch: int
    stop_reason: str  # "saturated", "patience" or "max_epochs"


@dataclass(frozen=True, eq=False)
class TrainJob:
    """A picklable description of one training run on one split. prepared
    holds one PreparedGraph per graph for the graph variants, or the
    standardized feature matrix for the dense baselines; models take
    whatever `batch` returns."""

    config: TrainConfig
    split: SplitPlan
    prepared: tuple[PreparedGraph, ...] | np.ndarray
    y: np.ndarray | None = None
    binary: np.ndarray | None = None
    num_classes: int | None = None

    def batch(self, indices) -> GraphBatch | np.ndarray:
        if isinstance(self.prepared, np.ndarray):
            return self.prepared[indices]
        return make_batch([self.prepared[i] for i in indices])

    def targets(self, indices) -> np.ndarray | None:
        return None if self.y is None else self.y[indices]

    @property
    def in_dim(self) -> int:
        first = self.prepared[0]  # one feature row, or one graph's edge rows
        return getattr(first, "x", first).shape[-1]


def _judge(model, inputs, job: TrainJob | None = None, idx=None):
    """(outputs, metric, value): a model's outputs on inputs, the metric
    that judges them and, given the job and rows the inputs came from, its
    value. clf outputs class probabilities, judged by the weighted F1 of
    their argmax; ae and oc output anomaly scores, judged by AUROC against
    the binary label."""
    if model.role == "clf":
        outputs = model.predict_proba(inputs)
        value = None if job is None else weighted_f1(job.y[idx], outputs.argmax(axis=1))
        return outputs, "weighted_f1", value
    outputs = model.anomaly_scores(inputs)
    return outputs, "auroc", None if job is None else auroc(outputs, job.binary[idx])


def _val_criterion(job: TrainJob, model) -> Callable[[], float]:
    """The validation score, recomputed per call: the role's own metric,
    which TrainConfig checks val_criterion against."""
    val = list(job.split.val)
    if model.role != "clf":
        counts = np.bincount(job.binary[val], minlength=2)
        if not counts.all():
            raise ValueError(f"the validation split holds {counts[0]} normal and {counts[1]} "
                             "anomalous graphs; AUROC needs both (raise unsup_val_fraction)")
    inputs = job.batch(val)

    def score() -> float:
        return _judge(model, inputs, job, val)[2]
    return score


def _val_ceiling(job: TrainJob, model) -> float:
    """The validation score of a perfect prediction, which no epoch can
    beat: 1.0 for AUROC, and for weighted F1 the validation labels scored
    against themselves (a sum of support shares that may round off 1.0)."""
    if model.role != "clf":
        return 1.0
    val = job.y[list(job.split.val)]
    return weighted_f1(val, val)


def train(job: TrainJob) -> FitResult:
    """Train with early stopping; returns the best-epoch model.

    The validation criterion is recomputed after every epoch, and a model
    is kept only on strict improvement. Training stops at the first of:
    the best score reaching the criterion's ceiling ("saturated"),
    `patience` consecutive epochs without improvement ("patience"), or
    `max_epochs` ("max_epochs").
    """
    config = job.config
    rng = np.random.default_rng(config.seed)
    model = build_model(config, job.in_dim, job.num_classes, rng)
    train_idx = np.asarray(job.split.train, dtype=np.intp)

    if model.role == "oc":
        model.init_center(job.batch(train_idx))

    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    val_score = _val_criterion(job, model)
    ceiling = _val_ceiling(job, model)

    best_val = -np.inf
    best_state = model.state()
    best_epoch = 0
    bad_epochs = 0
    history: list[EpochRecord] = []
    epoch = 0
    stop_reason = "max_epochs"
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_idx)
        losses = []
        try:
            for lo in range(0, len(order), config.batch_size):
                chunk = order[lo:lo + config.batch_size]
                loss = model.loss(job.batch(chunk), job.targets(chunk), mode=TRAIN, rng=rng)
                optimizer.zero_grad()
                loss.backward()
                losses.append(loss.item())
                del loss  # frees this step's tape before the update and the next forward
                optimizer.step()
            score = val_score()
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}: {exc}") from exc
        history.append(EpochRecord(epoch, float(np.mean(losses)), float(score)))
        if score > best_val:
            best_val = score
            best_epoch = epoch
            best_state = model.state()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if best_val >= ceiling:
            stop_reason = "saturated"
            break
        if bad_epochs >= config.patience:
            stop_reason = "patience"
            break
    model.load_state(best_state)
    return FitResult(model, config, history, best_epoch, float(best_val), epoch, stop_reason)


def evaluate_metrics(job: TrainJob, model, indices=None) -> dict:
    """Metric dict on the given indices (default: the test split)."""
    idx = list(job.split.test if indices is None else indices)
    outputs, metric, value = _judge(model, job.batch(idx), job, idx)
    out = {"metric": metric, "value": value}
    if metric == "weighted_f1":
        precision_recall = per_class_precision_recall(job.y[idx], outputs.argmax(axis=1))
        out["per_class"] = {str(cls): {"precision": p, "recall": r}
                            for cls, (p, r) in precision_recall.items()}
    return out


# -- grid search ---------------------------------------------------------------


def expand_grid(grid: dict[str, list]) -> list[dict]:
    """Cartesian product in key order; the last key varies fastest."""
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in product(*(grid[k] for k in keys))]


def grid_configs(grid: dict[str, list], base: TrainConfig) -> list[TrainConfig]:
    """base with each grid cell's overrides, in expand_grid order; a bad
    cell raises ValueError."""
    return [TrainConfig.from_dict({**base.to_dict(), **cell}) for cell in expand_grid(grid)]


@dataclass
class GridSearchResult:
    best_config: TrainConfig
    best_fit: FitResult
    cells: list[dict] = field(default_factory=list)


@contextmanager
def _mapper(workers: int):
    """The built-in map, or the map of a pool of `workers` processes; both
    yield results in input order."""
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        yield map if pool is None else pool.map


def grid_search(grid: dict[str, list], base_job: TrainJob,
                workers: int = 1) -> GridSearchResult:
    """Exhaustive search; ties keep the earliest cell in grid order.

    Returns the winning cell's own fit, keeping only the best fit so far
    while the cells run; test metrics are for the caller to compute.
    """
    combos = expand_grid(grid)
    jobs = [replace(base_job, config=config) for config in grid_configs(grid, base_job.config)]
    cells: list[dict] = []
    best_index, best_fit = 0, None
    with _mapper(workers) as map_:
        for i, fit in enumerate(map_(train, jobs)):
            cells.append({"config": combos[i], "val_score": fit.best_val,
                          "best_epoch": fit.best_epoch})
            if best_fit is None or fit.best_val > best_fit.best_val:
                best_index, best_fit = i, fit
    logger.info("grid search selected cell %d/%d (val %.4f)",
                best_index + 1, len(cells), best_fit.best_val)
    return GridSearchResult(best_fit.config, best_fit, cells)


# -- repeated-split protocol -----------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    """What to run: task, variant and split parameters."""

    task: str  # binary | category | family | unsupervised
    variant: str
    feature_set: str | None = None  # mlp variants only
    quota: int | None = None
    val_fraction: float | None = None
    train_fraction: float = 0.20
    unsup_val_fraction: float = 0.10

    def __post_init__(self):
        if self.task not in SUPERVISED_TASKS + ("unsupervised",):
            raise ValueError(f"unknown task {self.task!r}")
        if self.variant not in VARIANT_ROLES:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"expected one of {tuple(VARIANT_ROLES)}")
        if (VARIANT_ROLES[self.variant] == "clf") != (self.task != "unsupervised"):
            raise ValueError(f"variant {self.variant!r} does not fit task {self.task!r}")
        if self.variant in MLP_VARIANTS and self.feature_set is None:
            raise ValueError("mlp variants need a feature_set")

    @property
    def level(self) -> str:
        """The label level the task splits on: its own, or binary for unsupervised."""
        return "binary" if self.task == "unsupervised" else self.task


@dataclass
class ProtocolResult:
    report: MetricReport
    runs: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out["runs"] = self.runs
        return out


def task_data(spec: ProtocolSpec, graphs: list[FlowGraph],
              dataset: FlowDataset | None = None) -> tuple[np.ndarray | None, dict]:
    """The raw baseline features (None for graph variants) and the labels
    the task reads, keyed by level. A level that some graph lacks is left
    out, so label-free data can still be scored; splitting needs it."""
    raw_features = None
    if spec.variant in MLP_VARIANTS:
        raw_features = feature_matrix(graphs, spec.feature_set, dataset)
    labels_by_level = {
        level: labels_at_level(graphs, level) for level in dict.fromkeys(("binary", spec.level))
        if all(g.labels is not None and g.labels.at_level(level) is not None for g in graphs)
    }
    return raw_features, labels_by_level


def make_split(spec: ProtocolSpec, labels_by_level: dict[str, np.ndarray],
               seed: int) -> SplitPlan:
    if spec.level not in labels_by_level:
        raise ValueError(f"the {spec.task} task needs a {spec.level} label on every graph")
    labels = labels_by_level[spec.level]
    if spec.task == "unsupervised":
        return unsupervised_split(labels, seed,
                                  train_fraction=spec.train_fraction,
                                  val_fraction=spec.unsup_val_fraction)
    return supervised_split(labels, spec.task, seed,
                            quota=spec.quota, val_fraction=spec.val_fraction)


def make_job(spec: ProtocolSpec, config: TrainConfig, split: SplitPlan,
             graphs: list[FlowGraph], raw_features: np.ndarray | None,
             labels_by_level: dict[str, np.ndarray],
             prop_cache: list | None = None,
             standardizer: Standardizer | None = None) -> tuple[TrainJob, Standardizer]:
    """Assemble a TrainJob; the standardizer is fit on the split's
    training rows (edge rows or feature rows) unless an already-fitted one
    is supplied."""
    # targets only for the supervised tasks; unsupervised ones read binary labels alone
    y = None if spec.task == "unsupervised" else labels_by_level.get(spec.level)
    binary = labels_by_level.get("binary")
    num_classes = None if y is None else int(y.max()) + 1
    graph_variant = config.variant in GRAPH_VARIANTS
    rows = [g.edge_features for g in graphs] if graph_variant else raw_features
    if standardizer is None:
        standardizer = standardize_fit(np.vstack([rows[i] for i in split.train]))
    if graph_variant:
        props = prop_cache or [propagation_matrices(g) for g in graphs]
        prepared = tuple(PreparedGraph(p, standardizer(x)) for p, x in zip(props, rows))
    else:
        prepared = standardizer(rows)
    return TrainJob(config, split, prepared, y, binary, num_classes), standardizer


def _one_repeat(seed: int, *, spec, config, grid, graphs, raw_features, labels_by_level,
                prop_cache) -> dict:
    """One protocol repeat on seed; the keywords are run_protocol's shared inputs."""
    split = make_split(spec, labels_by_level, seed)
    job, _ = make_job(spec, replace(config, seed=seed), split, graphs,
                      raw_features, labels_by_level, prop_cache)
    searched = grid_search(grid or {}, job)
    fit = searched.best_fit
    metrics = evaluate_metrics(replace(job, config=searched.best_config), fit.model)
    return {
        "seed": seed,
        "value": metrics["value"],
        "metric": metrics["metric"],
        "best_epoch": fit.best_epoch,
        "val_score": fit.best_val,
        "config": searched.best_config.to_dict(),
    }


def run_protocol(spec: ProtocolSpec, graphs: list[FlowGraph],
                 config: TrainConfig | None = None,
                 grid: dict[str, list] | None = None,
                 n_repeats: int = 30, root_seed: int = 0,
                 dataset: FlowDataset | None = None,
                 workers: int = 1) -> ProtocolResult:
    """Repeat the full pipeline on seeds root_seed .. root_seed+n-1.

    Each repeat draws a fresh split, refits the standardizer on that
    split's training rows, grid-searches (no grid is the one cell {}) and
    scores the test split; propagation matrices depend on no split and are
    computed once.
    The report aggregates mean and standard deviation.
    """
    config = config if config is not None else TrainConfig(variant=spec.variant)
    if config.variant != spec.variant:
        config = replace(config, variant=spec.variant)
    raw_features, labels_by_level = task_data(spec, graphs, dataset)
    prop_cache = None
    if spec.variant in GRAPH_VARIANTS:
        prop_cache = [propagation_matrices(g) for g in graphs]

    repeat = partial(_one_repeat, spec=spec, config=config, grid=grid, graphs=graphs,
                     raw_features=raw_features, labels_by_level=labels_by_level,
                     prop_cache=prop_cache)
    with _mapper(workers) as map_:
        runs = list(map_(repeat, range(root_seed, root_seed + n_repeats)))

    report = MetricReport(
        task=spec.task,
        model=spec.variant,
        metric=runs[0]["metric"],
        per_seed=[r["value"] for r in runs],
    )
    logger.info("protocol %s/%s: %.4f +/- %.4f over %d seeds",
                spec.task, spec.variant, report.mean, report.std, n_repeats)
    return ProtocolResult(report, runs)


def write_report(result: ProtocolResult, out_dir, name: str = "report") -> tuple[str, str]:
    """Write a protocol report as JSON plus a per-seed CSV export."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{name}.json")
    csv_path = os.path.join(out_dir, f"{name}.csv")
    serialize.dump_path(result.to_dict(), json_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["seed", "metric", "value", "best_epoch", "val_score"])
        scores = serialize.finite_rows([[run["value"], run["val_score"]] for run in result.runs])
        for run, (value, val_score) in zip(result.runs, scores):
            writer.writerow([run["seed"], run["metric"], value, run["best_epoch"], val_score])
    return json_path, csv_path

