"""DQN policy distillation: tree fitting, surrogate serving, telemetry.

Pinned properties:

* ``fit_tree`` reproduces any consistent labelling exactly in-sample
  (unique states, unconstrained depth) -- the 100%-agreement floor the
  distillation pipeline relies on.
* ``predict_batch`` is pointwise identical to the scalar ``predict``
  walk for arbitrary states (property-based).
* ``act`` returns ``None`` exactly when the live mask forbids the
  prediction; the scheduler's ``act_surrogate`` then falls back to the
  network and counts the fallback.
* Periodic audits count disagreements observationally (the surrogate's
  choice still serves) and fold into the telemetry summary.
* ``save_surrogate``/``load_surrogate`` round-trip every array and the
  metadata.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.telemetry import BoundedTelemetry, Telemetry
from repro.core.mlcr import MLCRScheduler
from repro.drl.distill import (
    DistillConfig,
    TreeSurrogate,
    fit_tree,
    load_surrogate,
    save_surrogate,
)


def unique_states(rng, n, dim):
    """Random states with no duplicate rows (consistent labelling)."""
    states = rng.integers(0, 50, size=(n, dim)).astype(np.float64)
    _, keep = np.unique(states, axis=0, return_index=True)
    return states[np.sort(keep)]


def fitted(states, actions, n_actions, **config):
    return fit_tree(np.asarray(states, dtype=np.float64),
                    np.asarray(actions, dtype=np.int64),
                    n_actions, DistillConfig(**config))


class TestConfig:
    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            DistillConfig(max_depth=0)

    def test_rejects_bad_leaf(self):
        with pytest.raises(ValueError):
            DistillConfig(min_samples_leaf=0)


class TestFitTree:
    def test_axis_aligned_split(self):
        states = [[0.0], [1.0], [10.0], [11.0]]
        actions = [0, 0, 1, 1]
        tree = fitted(states, actions, 2)
        np.testing.assert_array_equal(
            tree.predict_batch(np.asarray(states)), actions)
        assert tree.n_nodes == 3  # one split, two leaves

    def test_pure_labels_single_leaf(self):
        tree = fitted([[0.0, 1.0], [5.0, 2.0]], [3, 3], 4)
        assert tree.n_nodes == 1
        assert tree.predict(np.array([99.0, -4.0])) == 3

    def test_depth_limit_falls_back_to_majority(self):
        states = [[0.0], [1.0], [2.0], [3.0]]
        tree = fitted(states, [0, 1, 0, 0], 2, max_depth=1)
        preds = tree.predict_batch(np.asarray(states))
        assert set(preds) <= {0, 1}
        assert (preds == [0, 1, 0, 0]).sum() >= 3

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 40),
           dim=st.integers(1, 6),
           n_actions=st.integers(2, 5))
    def test_consistent_labels_fit_exactly(self, seed, n, dim, n_actions):
        rng = np.random.default_rng(seed)
        states = unique_states(rng, n, dim)
        actions = rng.integers(0, n_actions, size=len(states))
        tree = fitted(states, actions, n_actions, max_depth=64)
        np.testing.assert_array_equal(tree.predict_batch(states), actions)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batch_matches_scalar_walk(self, seed):
        rng = np.random.default_rng(seed)
        train = unique_states(rng, 30, 4)
        tree = fitted(train, rng.integers(0, 3, size=len(train)), 3)
        probe = rng.normal(size=(25, 4)) * 30.0
        batch = tree.predict_batch(probe)
        for i, state in enumerate(probe):
            assert tree.predict(state) == batch[i]


class TestAct:
    def make_tree(self):
        return fitted([[0.0], [10.0]], [0, 1], 3)

    def test_mask_allows_prediction(self):
        tree = self.make_tree()
        assert tree.act(np.array([0.0]), np.array([1.0, 0.0, 0.0])) == 0

    def test_mask_forbids_prediction(self):
        tree = self.make_tree()
        assert tree.act(np.array([0.0]), np.array([0.0, 1.0, 1.0])) is None

    def test_prediction_beyond_mask_is_invalid(self):
        tree = self.make_tree()
        assert tree.act(np.array([20.0]), np.array([1.0])) is None


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        rng = np.random.default_rng(7)
        states = unique_states(rng, 25, 3)
        tree = fitted(states, rng.integers(0, 4, size=len(states)), 4)
        path = str(tmp_path / "surrogate.npz")
        save_surrogate(tree, path)
        loaded = load_surrogate(path)
        assert isinstance(loaded, TreeSurrogate)
        assert loaded.n_actions == tree.n_actions
        assert loaded.state_dim == tree.state_dim
        for attr in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(
                getattr(loaded, attr), getattr(tree, attr))
        np.testing.assert_array_equal(
            loaded.predict_batch(states), tree.predict_batch(states))


class _FakeEncoder:
    def reset(self):
        pass


class _FakeAgent:
    """Network stand-in: always answers ``network_action``."""

    def __init__(self, network_action=1):
        self.network_action = network_action
        self.calls = 0

    def act(self, state, mask, epsilon=0.0):
        assert epsilon == 0.0
        self.calls += 1
        return self.network_action


def scheduler_with(surrogate, network_action=1, audit_every=1):
    scheduler = MLCRScheduler(agent=_FakeAgent(network_action),
                              encoder=_FakeEncoder())
    scheduler.attach_surrogate(surrogate, audit_every=audit_every)
    return scheduler


class TestActSurrogate:
    tree = staticmethod(lambda: fitted([[0.0], [10.0]], [0, 1], 3))

    def test_audit_counts_disagreement(self):
        scheduler = scheduler_with(self.tree(), network_action=1)
        mask = np.array([1.0, 1.0, 1.0])
        assert scheduler.act_surrogate(np.array([0.0]), mask) == 0
        assert scheduler.surrogate_audits == 1
        assert scheduler.surrogate_disagreements == 1  # tree 0 vs net 1
        assert scheduler.act_surrogate(np.array([20.0]), mask) == 1
        assert scheduler.surrogate_disagreements == 1

    def test_fallback_on_masked_prediction(self):
        scheduler = scheduler_with(self.tree(), network_action=2)
        action = scheduler.act_surrogate(
            np.array([0.0]), np.array([0.0, 1.0, 1.0]))
        assert action == 2  # network's choice
        assert scheduler.surrogate_fallbacks == 1
        assert scheduler.surrogate_audits == 0

    def test_audit_disabled(self):
        scheduler = scheduler_with(self.tree(), audit_every=0)
        scheduler.act_surrogate(np.array([0.0]), np.array([1.0, 1.0, 1.0]))
        assert scheduler.surrogate_audits == 0
        assert scheduler.agent.calls == 0

    def test_attach_validates(self):
        scheduler = scheduler_with(self.tree())
        with pytest.raises(ValueError):
            scheduler.attach_surrogate(self.tree(), audit_every=-1)

    def test_reset_keeps_surrogate_clears_counters(self):
        scheduler = scheduler_with(self.tree())
        scheduler.act_surrogate(np.array([0.0]), np.array([1.0, 1.0, 1.0]))
        scheduler.reset()
        assert scheduler.surrogate is not None
        assert scheduler.surrogate_audits == 0
        assert scheduler.surrogate_disagreements == 0
        scheduler.detach_surrogate()
        assert scheduler.surrogate is None


class TestTelemetry:
    @pytest.mark.parametrize("telemetry_cls", [Telemetry, BoundedTelemetry])
    def test_summary_block_conditional(self, telemetry_cls):
        telemetry = telemetry_cls()
        assert "surrogate_audits" not in telemetry.summary()
        telemetry.record_surrogate_audit(8, 1)
        summary = telemetry.summary()
        assert summary["surrogate_audits"] == 8.0
        assert summary["surrogate_disagreements"] == 1.0
        # The surrogate block appends after the 14 base keys.
        assert list(summary)[-2:] == [
            "surrogate_audits", "surrogate_disagreements"]
