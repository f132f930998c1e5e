"""Dense layers, batch normalization and dropout on top of the tape."""

from __future__ import annotations

import numpy as np

from ..errors import BatchTooSmall, ShapeMismatch
from .tensor import Array, Parameter, Tensor, _check_finite, add, matmul, mul_const

TRAIN = "train"
EVAL = "eval"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense:
    """y = x @ W (+ b); bias is omitted entirely in bias-free models."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True, name: str = "dense"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = Parameter(glorot_uniform(rng, in_dim, out_dim), f"{name}.W")
        self.b = Parameter(np.zeros((1, out_dim)), f"{name}.b") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"dense: input width {x.shape[1]} != {self.in_dim}")
        y = matmul(x, self.W)
        if self.b is not None:
            y = add(y, self.b)
        return y

    def parameters(self) -> list[Parameter]:
        return [self.W] if self.b is None else [self.W, self.b]


class BatchNorm:
    """Column-wise normalization with running statistics.

    Train mode normalizes by the batch's population mean/variance and
    updates the running estimates; eval mode normalizes by the running
    estimates. The shift parameter beta can be dropped for bias-free
    models, leaving only the scale gamma.
    """

    def __init__(self, width: int, momentum: float = 0.1, eps: float = 1e-5,
                 shift: bool = True, name: str = "bn"):
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must be in (0, 1)")
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        self.width = width
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones((1, width)), f"{name}.gamma")
        self.beta = Parameter(np.zeros((1, width)), f"{name}.beta") if shift else None
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    def __call__(self, x: Tensor, mode: str) -> Tensor:
        if x.shape[1] != self.width:
            raise ShapeMismatch(f"batchnorm: width {x.shape[1]} != {self.width}")
        n = x.shape[0]
        if mode == TRAIN:
            if n < 2:
                raise BatchTooSmall("batch normalization needs >= 2 rows in train mode")
            mean = x.data.mean(axis=0)
            centered = x.data - mean
            var = (centered * centered).sum(axis=0) / n  # np.var's own arithmetic
            self.running_mean = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1.0 - self.momentum) * self.running_var + self.momentum * var
        elif mode == EVAL:
            centered = x.data - self.running_mean
            var = self.running_var
        else:
            raise ValueError(f"unknown mode {mode!r}")

        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered * inv_std
        gamma, beta = self.gamma, self.beta
        out_data = x_hat * gamma.data
        if beta is not None:
            out_data = out_data + beta.data
        _check_finite(out_data, "batchnorm")

        def backward(g: Array):
            d_gamma = (g * x_hat).sum(axis=0, keepdims=True)
            d_xhat = g * gamma.data
            # in eval mode the running statistics are constants
            dx = (inv_std * (d_xhat - d_xhat.mean(axis=0) - x_hat * (d_xhat * x_hat).sum(axis=0) / n)
                  if mode == TRAIN else d_xhat * inv_std)
            if beta is None:
                return dx, d_gamma
            return dx, d_gamma, g.sum(axis=0, keepdims=True)

        parents = (x, gamma) if beta is None else (x, gamma, beta)
        return Tensor(out_data, parents, backward)

    def parameters(self) -> list[Parameter]:
        return [self.gamma] if self.beta is None else [self.gamma, self.beta]

    def state(self) -> dict:
        return {
            "gamma": self.gamma.data[0].copy(),
            "beta": None if self.beta is None else self.beta.data[0].copy(),
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def load_state(self, state: dict) -> None:
        if (state.get("beta") is None) != (self.beta is None):
            raise ShapeMismatch("batch norm beta is " + ("missing" if self.beta is not None
                                                         else "stored, but the norm has none"))
        for key, value in state.items():
            if value is not None and np.size(value) != self.width:
                raise ShapeMismatch(f"batch norm {key} has {np.size(value)} entries, "
                                    f"not {self.width}")
        self.gamma.data = np.asarray(state["gamma"], dtype=np.float64).reshape(1, -1)
        if self.beta is not None:
            self.beta.data = np.asarray(state["beta"], dtype=np.float64).reshape(1, -1)
        self.running_mean = np.asarray(state["running_mean"], dtype=np.float64).copy()
        self.running_var = np.asarray(state["running_var"], dtype=np.float64).copy()


def _survivors(shape, p_drop: float, rng: np.random.Generator | None,
               mode: str) -> np.ndarray | None:
    """The survivor mask of inverted dropout, or None where dropout is the
    identity: in eval mode or at p_drop == 0. p_drop == 0 draws nothing
    from rng, keeping the random stream identical across configurations
    that disable dropout."""
    if not 0.0 <= p_drop < 1.0:
        raise ValueError("p_drop must be in [0, 1)")
    if mode == EVAL or p_drop == 0.0:
        return None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    return rng.random(shape) >= p_drop


def dropout(x: Tensor, p_drop: float, rng: np.random.Generator | None, mode: str) -> Tensor:
    """Inverted dropout; identity in eval mode or at p_drop == 0.

    Survivors are scaled by 1/(1-p) so the expected output equals the
    input.
    """
    keep = _survivors(x.shape, p_drop, rng, mode)
    return x if keep is None else mul_const(x, keep / (1.0 - p_drop))


def dropout_values(values: Array, p_drop: float, rng: np.random.Generator | None,
                   mode: str) -> Array:
    """Inverted dropout over a plain coefficient vector (no gradient)."""
    keep = _survivors(values.shape, p_drop, rng, mode)
    return values if keep is None else values * keep / (1.0 - p_drop)
