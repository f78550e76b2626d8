"""Tests for the DRL state encoder and action masking."""

import numpy as np
import pytest

from repro.containers.matching import MatchLevel
from repro.core.state import EncodedState, StateEncoder
from repro.schedulers.base import Decision

from conftest import make_container, make_ctx, make_image, make_invocation, make_spec


@pytest.fixture
def encoder():
    return StateEncoder(n_slots=4)


def ctx_with_containers(containers, **kw):
    spec = make_spec(name="f", image=make_image("f"))
    return make_ctx(make_invocation(spec), idle_containers=containers, **kw)


class TestDimensions:
    def test_state_dim_consistent(self, encoder):
        ctx = ctx_with_containers([])
        enc = encoder.encode(ctx)
        assert enc.state.shape == (encoder.state_dim,)
        assert enc.mask.shape == (encoder.action_dim,)
        assert encoder.state_dim == (
            encoder.global_dim + encoder.n_slots * encoder.slot_dim
        )

    def test_action_dim(self, encoder):
        assert encoder.action_dim == 5  # 4 slots + cold


class TestMask:
    def test_cold_always_valid(self, encoder):
        enc = encoder.encode(ctx_with_containers([]))
        assert enc.mask[-1]
        assert not enc.mask[:-1].any()

    def test_matching_container_valid(self, encoder):
        c = make_container(1)  # same default image -> L3
        enc = encoder.encode(ctx_with_containers([c]))
        assert enc.mask[0]
        assert enc.slot_containers[0] == 1
        assert enc.slot_matches[0] is MatchLevel.L3

    def test_no_match_container_masked(self, encoder):
        c = make_container(1, image=make_image("o", os_name="debian"))
        enc = encoder.encode(ctx_with_containers([c]))
        assert not enc.mask[0]
        assert enc.slot_containers[0] == 1  # visible but masked

    def test_slots_ranked_by_match_depth(self, encoder):
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        c_l3 = make_container(2)
        c_l2 = make_container(3, image=make_image("y",
                                                  runtime_names=("numpy",)))
        enc = encoder.encode(ctx_with_containers([c_l1, c_l3, c_l2]))
        assert enc.slot_matches[:3] == (
            MatchLevel.L3, MatchLevel.L2, MatchLevel.L1
        )
        assert enc.slot_containers[:3] == (2, 3, 1)

    def test_full_match_masks_shallower_reuses(self, encoder):
        """A visible L3 match dominates the L2/L1 reuses, which are masked."""
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        c_l2 = make_container(3, image=make_image("y",
                                                  runtime_names=("numpy",)))
        shallow = encoder.encode(ctx_with_containers([c_l1, c_l2]))
        assert shallow.mask.tolist() == [True, True, False, False, True]
        encoder.reset()
        enc = encoder.encode(
            ctx_with_containers([c_l1, make_container(2), c_l2])
        )
        assert enc.mask.tolist() == [True, False, False, False, True]

    def test_overflow_keeps_deepest(self, encoder):
        deep = make_container(99)
        shallow = [
            make_container(i, image=make_image(f"s{i}", lang_name="nodejs"))
            for i in range(10)
        ]
        enc = encoder.encode(ctx_with_containers(shallow + [deep]))
        assert enc.slot_containers[0] == 99


class TestDecisionFor:
    def test_cold_action(self, encoder):
        enc = encoder.encode(ctx_with_containers([]))
        assert enc.decision_for(encoder.n_slots) == Decision.cold()

    def test_warm_action(self, encoder):
        enc = encoder.encode(ctx_with_containers([make_container(7)]))
        assert enc.decision_for(0) == Decision.warm(7)

    def test_empty_slot_means_cold(self, encoder):
        """Paper: actions pointing beyond the pool mean cold start."""
        enc = encoder.encode(ctx_with_containers([]))
        assert enc.decision_for(2).is_cold

    def test_out_of_range_rejected(self, encoder):
        enc = encoder.encode(ctx_with_containers([]))
        with pytest.raises(ValueError):
            enc.decision_for(99)


class TestFeatures:
    def test_arrival_interval_tracked(self, encoder):
        encoder.reset()
        e1 = encoder.encode(ctx_with_containers([], now=0.0))
        e2 = encoder.encode(ctx_with_containers([], now=5.0))
        interval_idx = len(encoder.catalog.key_order()) + 3
        assert e1.state[interval_idx] == pytest.approx(0.0)
        assert e2.state[interval_idx] == pytest.approx(np.log1p(5.0))

    def test_reset_clears_interval(self, encoder):
        encoder.encode(ctx_with_containers([], now=0.0))
        encoder.reset()
        e = encoder.encode(ctx_with_containers([], now=100.0))
        interval_idx = len(encoder.catalog.key_order()) + 3
        assert e.state[interval_idx] == pytest.approx(0.0)

    def test_bag_of_packages_set(self, encoder):
        enc = encoder.encode(ctx_with_containers([]))
        n_keys = len(encoder.catalog.key_order())
        bag = enc.state[:n_keys]
        spec_packages = len(make_image("f").packages)
        assert bag.sum() == spec_packages

    def test_demand_accumulates(self, encoder):
        encoder.reset()
        image = make_image("f")
        demand_idx = len(encoder.catalog.key_order()) + 7
        e1 = encoder.encode(ctx_with_containers([]))
        assert e1.state[demand_idx] == pytest.approx(1.0)  # only arrival
        # Same function again: still the only stack seen.
        e2 = encoder.encode(ctx_with_containers([]))
        assert e2.state[demand_idx] == pytest.approx(1.0)

    def test_demand_splits_between_stacks(self):
        encoder = StateEncoder(n_slots=2)
        spec_a = make_spec(name="a", image=make_image("a"))
        spec_b = make_spec(
            name="b", image=make_image("b", runtime_names=("numpy",))
        )
        demand_idx = len(encoder.catalog.key_order()) + 7
        encoder.encode(make_ctx(make_invocation(spec_a)))
        enc = encoder.encode(make_ctx(make_invocation(spec_b)))
        assert 0.0 < enc.state[demand_idx] < 1.0

    def test_finite_features_always(self, encoder):
        containers = [
            make_container(i, image=make_image(f"c{i}"), last_used_at=0.0)
            for i in range(6)
        ]
        enc = encoder.encode(
            ctx_with_containers(containers, capacity_mb=float("inf"))
        )
        assert np.isfinite(enc.state).all()
