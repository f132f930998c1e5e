"""Constant-column removal and standardization fit on training rows only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDimension

CONSTANT_TOL = 1e-12


def constant_column_mask(fit_rows: np.ndarray, tol: float = CONSTANT_TOL) -> np.ndarray:
    """True for columns whose spread over the fit rows is within tol."""
    rows = np.asarray(fit_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("fit rows must be a non-empty 2-D matrix")
    return (rows.max(axis=0) - rows.min(axis=0)) <= tol


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Column selection plus affine map fit on training rows."""

    kept_columns: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if self.kept_columns.size and rows.shape[1] <= self.kept_columns[-1]:
            raise InconsistentDimension(
                f"feature rows have {rows.shape[1]} columns, but the standardizer was fit on "
                f"at least {self.kept_columns[-1] + 1}")
        return (rows[:, self.kept_columns] - self.mean) / self.std

    def to_dict(self) -> dict:
        return {
            "kept_columns": self.kept_columns,
            "mean": self.mean,
            "std": self.std,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Standardizer":
        return cls(
            kept_columns=np.asarray(raw["kept_columns"], dtype=np.intp),
            mean=np.asarray(raw["mean"], dtype=np.float64),
            std=np.asarray(raw["std"], dtype=np.float64),
        )


def standardize_fit(train_rows: np.ndarray, tol: float = CONSTANT_TOL) -> Standardizer:
    """Per-column z-score (population std) over the non-constant columns."""
    rows = np.asarray(train_rows, dtype=np.float64)
    kept = np.flatnonzero(~constant_column_mask(rows, tol))
    reduced = rows[:, kept]
    mean = reduced.mean(axis=0)
    std = reduced.std(axis=0)
    if np.any(std <= 0.0):
        raise ValueError("a kept column has zero spread; lower the tolerance")
    return Standardizer(kept_columns=kept, mean=mean, std=std)

