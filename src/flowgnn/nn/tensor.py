"""Reverse-mode automatic differentiation over 2-D float64 arrays.

Every operation records its parents and a closure computing parent
gradients from the output gradient. Calling backward() on a 1x1 loss
walks the tape in reverse topological order and (re)populates .grad on
every leaf it visited (a tensor without a backward closure: parameters
and inputs); gradients never accumulate across calls. Intermediate
tensors keep .grad = None, and each one's gradient is dropped as soon as
its closure has run, so a backward pass holds only the gradients still
waiting to be consumed. The tape stays intact and can be walked again.

Leaf tensors are checked for NaN/Inf when they are built; every op checks
its own result once and raises NumericalError naming itself, so a
diverging training run fails loudly at the op that produced it. relu and
concat_cols cannot turn finite inputs into non-finite outputs and skip it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import NotScalarLoss, NumericalError, ShapeMismatch

Array = np.ndarray


def _as_2d(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
    return arr


def _check_finite(arr: Array, op: str) -> Array:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite result in {op}")
    return arr


class Tensor:
    """A (rows, cols) float64 array participating in gradient tracking."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        self.data = _as_2d(data)
        if not _parents:
            _check_finite(self.data, "tensor construction")
        self.grad: Array | None = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def backward(self) -> None:
        """Populate .grad on every leaf reachable from this scalar loss.

        Only tensors without a backward closure (parameters and inputs) get
        .grad; an intermediate gradient is freed once its closure has run.
        """
        if self.data.size != 1:
            raise NotScalarLoss(f"loss must be 1x1, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        # reverse postorder is a topological order, so by the time a node is
        # visited every consumer has already deposited its contribution
        grads: dict[int, Array] = {id(self): np.ones((1, 1))}
        for node in reversed(order):
            grad = grads.pop(id(node), None)
            if node._backward is None:
                node.grad = grad
                continue
            if grad is None:
                continue
            for parent, contribution in zip(node._parents, node._backward(grad)):
                if contribution is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution


class Parameter(Tensor):
    """A named learnable tensor; .grad persists between training steps."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.shape})"


def _unbroadcast(grad: Array, shape: tuple[int, int]) -> Array:
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise ShapeMismatch(f"cannot reduce grad {grad.shape} to {shape}")
    return out


def _broadcastable(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out_data = _check_finite(a.data + b.data, "add")

    def backward(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out_data = _check_finite(a.data - b.data, "sub")

    def backward(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out_data = _check_finite(a.data * b.data, "mul")

    def backward(g: Array):
        return (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        )

    return Tensor(out_data, (a, b), backward)


def mul_const(a: Tensor, factor) -> Tensor:
    """Multiply by a fixed array or scalar that needs no gradient."""
    arr = np.asarray(factor, dtype=np.float64)
    if arr.ndim == 2 and not _broadcastable(a.shape, arr.shape):
        raise ShapeMismatch(f"mul_const: {a.shape} vs {arr.shape}")
    out_data = _check_finite(a.data * arr, "mul_const")

    def backward(g: Array):
        return (_unbroadcast(g * arr, a.shape),)

    return Tensor(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    out_data = _check_finite(a.data @ b.data, "matmul")

    def backward(g: Array):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out_data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    # the same bits as np.where(a > 0, a, 0.0) at a fraction of its cost:
    # adding +0.0 turns a -0.0 that maximum kept into +0.0
    out_data = np.maximum(a.data, 0.0)
    out_data += 0.0

    def backward(g: Array):
        grad = (a.data > 0.0).astype(np.float64)  # a float mask multiplies faster than a bool one
        grad *= g
        return (grad,)

    return Tensor(out_data, (a,), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeMismatch("concat_cols: row counts differ")
    out_data = np.concatenate([p.data for p in parts], axis=1)
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward(g: Array):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return Tensor(out_data, tuple(parts), backward)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.array([[a.data.sum()]])
    _check_finite(out_data, "sum_all")

    def backward(g: Array):
        return (np.full(a.shape, g[0, 0]),)

    return Tensor(out_data, (a,), backward)


def _check_index(index: Array, n: int, op: str) -> None:
    if len(index) and (index.min() < 0 or index.max() >= n):
        raise ShapeMismatch(f"{op}: index outside [0, {n})")


def _scatter_add(index: Array, values: Array, n_out: int) -> Array:
    """out[j] = sum of values[i] over the rows i with index[i] == j.

    Adds in row order, as np.add.at does, so the sums match it bit for
    bit; one flat bincount is several times faster than np.add.at.
    """
    cols = values.shape[1]
    flat = (index[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_out * cols).reshape(n_out, cols)


def scatter_rows(a: Tensor, index: Array, coeff: Array, n_out: int) -> Tensor:
    """out[j] = sum over rows i with index[i] == j of coeff[i] * a[i].

    Applies a sparse matrix with one nonzero per column (at row index[i],
    value coeff[i]) to a dense (rows, cols) tensor.
    """
    if len(index) != a.shape[0] or len(coeff) != a.shape[0]:
        raise ShapeMismatch("scatter_rows: index/coeff length must match rows")
    _check_index(index, n_out, "scatter_rows")
    out_data = _check_finite(_scatter_add(index, coeff[:, None] * a.data, n_out), "scatter_rows")

    def backward(g: Array):
        return (coeff[:, None] * g[index],)

    return Tensor(out_data, (a,), backward)


def gather_rows(a: Tensor, index: Array, coeff: Array) -> Tensor:
    """out[i] = coeff[i] * a[index[i]]; the transpose of scatter_rows."""
    if len(coeff) != len(index):
        raise ShapeMismatch("gather_rows: coeff must have one entry per index")
    _check_index(index, a.shape[0], "gather_rows")
    out_data = coeff[:, None] * a.data[index]
    _check_finite(out_data, "gather_rows")

    def backward(g: Array):
        return (_scatter_add(index, coeff[:, None] * g, a.shape[0]),)

    return Tensor(out_data, (a,), backward)


def segment_pool(a: Tensor, offsets: Array, mode: str) -> Tensor:
    """Pool contiguous row segments into one row each (mean, add or max).

    Segment i holds rows offsets[i]:offsets[i + 1] and must not be empty.
    Sums add rows in order, as ndarray.sum(axis=0) does. Max pooling sends
    each column's gradient to the first maximal row of its segment.
    """
    offsets = np.asarray(offsets, dtype=np.intp)
    counts = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != a.shape[0] or np.any(counts <= 0):
        raise ShapeMismatch("segment_pool: offsets must rise from 0 to the row count")
    starts = offsets[:-1]
    cols = np.arange(a.shape[1])
    if mode in ("mean", "add"):
        out_data = _scatter_add(np.repeat(np.arange(len(counts)), counts), a.data, len(counts))
        if mode == "mean":
            out_data /= counts[:, None]
    elif mode == "max":
        peak = np.repeat(np.maximum.reduceat(a.data, starts, axis=0), counts, axis=0)
        rows = np.where(a.data == peak, np.arange(a.shape[0])[:, None], a.shape[0])
        argmax = np.minimum.reduceat(rows, starts, axis=0)
        out_data = a.data[argmax, cols]
    else:
        raise ValueError(f"unknown pooling mode {mode!r}")
    _check_finite(out_data, "segment_pool")

    def backward(g: Array):
        if mode == "max":
            grad = np.zeros_like(a.data)
            grad[argmax, cols] = g
            return (grad,)
        return (np.repeat(g / counts[:, None] if mode == "mean" else g, counts, axis=0),)

    return Tensor(out_data, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=1, keepdims=True)
    _check_finite(out_data, "softmax_rows")

    def backward(g: Array):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor(out_data, (a,), backward)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]."""
    idx = np.asarray(targets, dtype=np.intp).ravel()
    if idx.shape[0] != logits.shape[0]:
        raise ShapeMismatch("cross_entropy: one target per row required")
    if np.any(idx < 0) or np.any(idx >= logits.shape[1]):
        raise ShapeMismatch("cross_entropy: target index out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(idx.shape[0])
    losses = log_z - shifted[rows, idx]
    out_data = np.array([[losses.mean()]])
    _check_finite(out_data, "cross_entropy")

    def backward(g: Array):
        probs = np.exp(shifted - log_z[:, None])
        probs[rows, idx] -= 1.0
        return (g[0, 0] * probs / idx.shape[0],)

    return Tensor(out_data, (logits,), backward)
