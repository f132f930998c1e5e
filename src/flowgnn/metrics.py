"""Evaluation metrics computed exactly (no thresholds, no interpolation)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def per_class_precision_recall(y_true, y_pred) -> dict[int, tuple[float, float]]:
    """Precision and recall per class present in y_true or y_pred."""
    true = np.asarray(y_true, dtype=np.intp).ravel()
    pred = np.asarray(y_pred, dtype=np.intp).ravel()
    if true.shape != pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    out: dict[int, tuple[float, float]] = {}
    for cls in sorted(set(true.tolist()) | set(pred.tolist())):
        tp = int(np.sum((pred == cls) & (true == cls)))
        fp = int(np.sum((pred == cls) & (true != cls)))
        fn = int(np.sum((pred != cls) & (true == cls)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        out[cls] = (precision, recall)
    return out


def weighted_f1(y_true, y_pred) -> float:
    """Per-class F1 averaged with weights proportional to class support.

    A class with zero precision and recall contributes F1 = 0.
    """
    true = np.asarray(y_true, dtype=np.intp).ravel()
    pred = np.asarray(y_pred, dtype=np.intp).ravel()
    if true.shape != pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if true.size == 0:
        raise ValueError("cannot score zero samples")
    total = 0.0
    for cls, (precision, recall) in per_class_precision_recall(true, pred).items():
        support = int(np.sum(true == cls))
        if support == 0:
            continue
        f1 = 0.0 if precision + recall == 0.0 else 2 * precision * recall / (precision + recall)
        total += f1 * support / true.size
    return total


def auroc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Computed exactly from mid-ranks, so tied scores contribute one half.
    Labels are binary with 1 as the positive class; scores must not be NaN.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError("scores and labels must have the same length")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError(f"AUROC labels must be 0 or 1, got {sorted(set(y.tolist()) - {0, 1})}")
    if np.isnan(s).any():
        raise ValueError("AUROC scores must not be NaN")
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    # 1-based mid-rank of each tie group: its last rank less half its extra members
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    mid_ranks = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = mid_ranks[group][y == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class MetricReport:
    """Mean and spread of one metric across repeated protocol runs."""

    task: str
    model: str
    metric: str
    per_seed: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed))

    @property
    def std(self) -> float:
        return float(np.std(self.per_seed))

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "model": self.model,
            "metric": self.metric,
            "mean": self.mean,
            "std": self.std,
            "per_seed": list(self.per_seed),
        }
