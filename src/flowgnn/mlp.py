"""Dense baselines over per-sample feature vectors.

Three variants mirror the graph model heads: a softmax classifier, an
autoencoder scored by reconstruction error and a one-class model scored
by distance to a frozen center. All use plain dense layers with ReLU
hidden activations; an optional L2 penalty regularizes every weight
matrix.
"""

from __future__ import annotations

import numpy as np

from .model import Network
from .nn import (
    TRAIN,
    Dense,
    Tensor,
    cross_entropy,
    mul,
    relu,
    scale,
    softmax_rows,
    sub,
    sum_all,
)

MLP_VARIANTS = ("mlp", "mlp_ae", "mlp_oc")


class DenseNetwork(Network):
    """Up to two ReLU hidden layers plus a variant-specific output."""

    def __init__(self, variant: str, in_dim: int, num_hidden: int,
                 num_layers: int, rng: np.random.Generator,
                 num_classes: int | None = None, l2: float = 0.0):
        super().__init__(variant, MLP_VARIANTS, in_dim, num_hidden, num_layers, num_classes)
        self.l2 = l2

        h = num_hidden
        widths = [in_dim] + [h] * num_layers
        self.hidden = [
            Dense(widths[i], widths[i + 1], rng, bias=self.bias, name=f"hidden{i + 1}")
            for i in range(num_layers)
        ]
        self.out: Dense | None = None
        if variant == "mlp":
            self.out = Dense(h, num_classes, rng, bias=self.bias, name="out")
        elif variant == "mlp_ae":
            self.out = Dense(h, in_dim, rng, bias=self.bias, name="out")

    def layers(self) -> list[Dense]:
        return self.hidden + ([] if self.out is None else [self.out])

    def embed(self, x) -> Tensor:
        x = _as_tensor(x)
        for layer in self.hidden:
            x = relu(layer(x))
        return x

    def logits(self, x) -> Tensor:
        if self.variant != "mlp":
            raise ValueError("logits are only defined for the classifier variant")
        return self.out(self.embed(x))

    def predict_proba(self, x) -> np.ndarray:
        return softmax_rows(self.logits(x)).data

    def reconstruct(self, x) -> Tensor:
        if self.variant != "mlp_ae":
            raise ValueError("reconstruct is only defined for the autoencoder variant")
        return self.out(self.embed(x))

    def loss(self, x, targets=None, mode: str = TRAIN, rng=None) -> Tensor:
        xt = _as_tensor(x)
        if self.variant == "mlp":
            value = cross_entropy(self.out(self.embed(xt)), targets)
        elif self.variant == "mlp_ae":
            diff = sub(xt, self.out(self.embed(xt)))
            value = scale(sum_all(mul(diff, diff)), 1.0 / xt.shape[0])
        else:
            if self.center is None:
                raise ValueError("init_center must run before the one-class loss")
            diff = sub(self.embed(xt), Tensor(self.center))
            value = scale(sum_all(mul(diff, diff)), 1.0 / xt.shape[0])
        return value if self.l2 == 0.0 else value + self._l2_term(self.l2)

    def anomaly_scores(self, x) -> np.ndarray:
        if self.variant == "mlp_ae":
            xt = _as_tensor(x)
            diff = xt.data - self.out(self.embed(xt)).data
            return (diff ** 2).sum(axis=1)
        if self.variant == "mlp_oc":
            return self._center_distances(x)
        raise ValueError("anomaly scores are only defined for ae and oc variants")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
