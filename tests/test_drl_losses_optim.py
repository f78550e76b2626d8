"""Tests for the Huber loss, the Adam optimizer and the epsilon schedule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.drl.layers import Parameter
from repro.drl.losses import huber_loss
from repro.drl.optim import Adam
from repro.drl.schedules import LinearDecayEpsilon


class TestHuber:
    def test_quadratic_region(self):
        loss, grad = huber_loss(np.array([0.5]), np.array([0.0]), delta=1.0)
        assert loss == pytest.approx(0.125)
        assert grad[0] == pytest.approx(0.5)

    def test_linear_region(self):
        loss, grad = huber_loss(np.array([3.0]), np.array([0.0]), delta=1.0)
        assert loss == pytest.approx(2.5)
        assert grad[0] == pytest.approx(1.0)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            huber_loss(np.zeros(1), np.zeros(1), delta=0.0)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_grad_bounded_by_delta(self, x):
        _, grad = huber_loss(np.array([x]), np.array([0.0]), delta=1.0)
        assert abs(grad[0]) <= 1.0 + 1e-12

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_huber_below_mse(self, x):
        h, _ = huber_loss(np.array([x]), np.array([0.0]))
        assert h <= x**2 / 2 + 0.51 * x**2 + 1e-9  # huber <= quadratic envelope


class TestOptimizers:
    def _quadratic_descent(self, make_opt, steps=200):
        """Minimize ||p - t||^2 and return the final distance."""
        rng = np.random.default_rng(0)
        target = rng.normal(size=4)
        p = Parameter(np.zeros(4))
        opt = make_opt([p])
        for _ in range(steps):
            opt.zero_grad()
            p.grad += 2 * (p.value - target)
            opt.step()
        return float(np.abs(p.value - target).max())

    def test_adam_converges(self):
        assert self._quadratic_descent(lambda ps: Adam(ps, lr=0.1)) < 1e-4

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_grad_clipping(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        p.grad += np.full(4, 100.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_leaves_small_grads(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        p.grad += 0.01
        opt.clip_grad_norm(10.0)
        np.testing.assert_allclose(p.grad, 0.01)


class TestSchedules:
    def test_linear_decay_endpoints(self):
        s = LinearDecayEpsilon(1.0, 0.1, 100)
        assert s.value(0) == pytest.approx(1.0)
        assert s.value(100) == pytest.approx(0.1)
        assert s.value(10_000) == pytest.approx(0.1)

    def test_linear_decay_midpoint(self):
        s = LinearDecayEpsilon(1.0, 0.0, 100)
        assert s.value(50) == pytest.approx(0.5)

    def test_monotone(self):
        s = LinearDecayEpsilon(0.9, 0.05, 1000)
        values = [s.value(i) for i in range(0, 2000, 37)]
        assert values == sorted(values, reverse=True)

    def test_bad_decay_steps(self):
        with pytest.raises(ValueError):
            LinearDecayEpsilon(decay_steps=0)
