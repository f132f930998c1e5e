"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .tensor import Parameter


class Adam:
    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in (0, 1)")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        """Clear every .grad; backward gives each parameter the loss reaches a new one."""
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Update every parameter from its .grad; one whose .grad is None
        (the loss did not reach it) keeps its value and moments.

        m and v are updated in place; p.data gets a new array, since a
        saved model state may still hold the old one. The arithmetic is
        the textbook expression's, operation for operation, so the bits
        match it: (1 - beta2) * g * g is ((1 - beta2) * g) * g and lr
        scales m_hat before the divide.
        """
        self.step_count += 1
        t = self.step_count
        m_scale = 1.0 - self.beta1 ** t
        v_scale = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            g_sq = (1.0 - self.beta2) * g
            g_sq *= g
            v *= self.beta2
            v += g_sq
            update = m / m_scale
            update *= self.lr
            denom = v / v_scale
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            p.data = p.data - update
