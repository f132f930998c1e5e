"""Constant-column removal and standardization fit on training rows only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTANT_TOL = 1e-12


def constant_column_mask(fit_rows: np.ndarray, tol: float = CONSTANT_TOL) -> np.ndarray:
    """True for columns whose spread over the fit rows is within tol."""
    rows = np.asarray(fit_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("fit rows must be a non-empty 2-D matrix")
    return (rows.max(axis=0) - rows.min(axis=0)) <= tol


def remove_constant_columns(matrix: np.ndarray, fit_rows: np.ndarray | None = None,
                            tol: float = CONSTANT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Drop columns that are constant across the fit rows.

    Returns (reduced matrix, kept column indices). The kept set comes
    from fit_rows (default: the matrix itself), so one fit applies
    consistently to train, validation and test rows.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    mask = constant_column_mask(matrix if fit_rows is None else fit_rows, tol)
    kept = np.flatnonzero(~mask)
    return matrix[:, kept], kept


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Column selection plus affine map fit on training rows."""

    kept_columns: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
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
    _, kept = remove_constant_columns(rows, tol=tol)
    reduced = rows[:, kept]
    mean = reduced.mean(axis=0)
    std = reduced.std(axis=0)
    if np.any(std <= 0.0):
        raise ValueError("a kept column has zero spread; lower the tolerance")
    return Standardizer(kept_columns=kept, mean=mean, std=std)

