"""Minimal dense-tensor neural network core with reverse-mode gradients."""

from .gradcheck import GradCheckReport, finite_difference_check
from .layers import EVAL, TRAIN, BatchNorm, Dense, dropout, dropout_values, glorot_uniform
from .optim import Adam
from .tensor import (
    Parameter,
    Tensor,
    add,
    concat_cols,
    cross_entropy,
    gather_rows,
    matmul,
    mul,
    mul_const,
    no_tape,
    relu,
    scatter_rows,
    segment_pool,
    sub,
    sum_all,
)

__all__ = [
    "Adam",
    "BatchNorm",
    "Dense",
    "EVAL",
    "GradCheckReport",
    "Parameter",
    "TRAIN",
    "Tensor",
    "add",
    "concat_cols",
    "cross_entropy",
    "dropout",
    "dropout_values",
    "finite_difference_check",
    "gather_rows",
    "glorot_uniform",
    "matmul",
    "mul",
    "mul_const",
    "no_tape",
    "relu",
    "scatter_rows",
    "segment_pool",
    "sub",
    "sum_all",
]
