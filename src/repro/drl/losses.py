"""The DQN loss with its analytic gradient.

The loss returns ``(value, grad)`` where ``grad`` is the derivative with
respect to the predictions, already divided by the batch size so callers can
feed it straight into ``Module.backward``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def huber_loss(
    pred: np.ndarray, target: np.ndarray, delta: float = 1.0
) -> Tuple[float, np.ndarray]:
    """Huber loss: quadratic near zero, linear beyond ``delta``.

    The standard choice for DQN targets -- robust to the large TD errors that
    bootstrapped targets produce early in training.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    diff = pred - target
    abs_diff = np.abs(diff)
    quadratic = abs_diff <= delta
    loss_terms = np.where(
        quadratic, 0.5 * diff**2, delta * (abs_diff - 0.5 * delta)
    )
    loss = float(np.mean(loss_terms))
    grad = np.where(quadratic, diff, delta * np.sign(diff)) / diff.size
    return loss, grad
