"""Dense baselines over per-sample feature vectors.

Three variants mirror the graph model heads: a softmax classifier, an
autoencoder scored by reconstruction error and a one-class model scored
by distance to a frozen center. All use plain dense layers with ReLU
hidden activations; a non-zero L2 penalty regularizes every weight
matrix.
"""

from __future__ import annotations

import numpy as np

from .model import Network
from .nn import EVAL, TRAIN, Dense, Tensor, mul, mul_const, relu, sub, sum_all

MLP_VARIANTS = ("mlp", "mlp_ae", "mlp_oc")


class DenseNetwork(Network):
    """Up to two ReLU hidden layers plus the role's output layer."""

    def __init__(self, variant: str, in_dim: int, num_hidden: int,
                 num_layers: int, rng: np.random.Generator,
                 num_classes: int | None = None, l2: float = 0.0):
        super().__init__(variant, MLP_VARIANTS, in_dim, num_hidden, num_layers, num_classes)
        self.penalty = l2 or None  # l2 penalizes every dense head, when non-zero

        widths = [in_dim] + [num_hidden] * num_layers
        self.hidden = [
            Dense(widths[i], widths[i + 1], rng, bias=self.bias, name=f"hidden{i + 1}")
            for i in range(num_layers)
        ]
        out_dim = {"clf": num_classes, "ae": in_dim}.get(self.role)
        self.out = None if out_dim is None else Dense(num_hidden, out_dim, rng, bias=self.bias,
                                                      name="out")
        self.head = self.out if self.role == "clf" else None

    def layers(self) -> list[Dense]:
        return self.hidden + ([] if self.out is None else [self.out])

    def pooled(self, x, mode: str = EVAL, rng=None) -> Tensor:
        """One row per sample already; dense layers act alike in every mode."""
        x = _as_tensor(x)
        for layer in self.hidden:
            x = relu(layer(x))
        return x

    embed = pooled

    def reconstruct(self, x) -> Tensor:
        self._require("ae", "reconstruct")
        return self.out(self.embed(x))

    def ae_loss(self, x, mode: str = TRAIN, rng=None) -> Tensor:
        xt = _as_tensor(x)
        diff = sub(xt, self.reconstruct(xt))
        return mul_const(sum_all(mul(diff, diff)), 1.0 / xt.shape[0])

    def _reconstruction_errors(self, x) -> np.ndarray:
        xt = _as_tensor(x)
        return ((xt.data - self.reconstruct(xt).data) ** 2).sum(axis=1)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
