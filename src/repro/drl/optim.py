"""The Adam optimizer.

The Adam moments are allocated with ``np.zeros_like`` on the parameter
values, so they automatically follow the network's compute dtype: a float32 network gets float32 optimizer state and
the whole update step stays in float32 (scalar coefficients are Python
floats, which numpy's weak promotion keeps at the array dtype).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.drl.layers import Parameter


class Adam:
    """Adam (Kingma & Ba) with bias correction over a fixed parameter set."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not params:
            raise ValueError("no parameters to optimize")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must be in [0, 1)")
        self.params: List[Parameter] = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        """Zero every accumulated gradient."""
        for p in self.params:
            p.zero_grad()

    def clip_grad_norm(self, max_norm: float) -> float:
        """Globally rescale gradients to at most ``max_norm``; returns norm."""
        # Flat dot products: no squared-gradient temporaries on the hot path.
        total = np.sqrt(sum(
            float(np.dot(g, g)) for g in (p.grad.ravel() for p in self.params)
        ))
        if total > max_norm and total > 0:
            scale = max_norm / total
            for p in self.params:
                p.grad *= scale
        return total

    def step(self) -> None:
        """Apply one parameter update from the accumulated gradients."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        scale = self.lr / bias1
        for p, m, v in zip(self.params, self._m, self._v):
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad**2
            denom = np.sqrt(v / bias2)
            denom += self.eps
            p.value -= scale * m / denom
