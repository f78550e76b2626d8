"""Tests for the DRL state encoder and action masking."""

import heapq

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.pool import PoolSet
from repro.containers.matching import MatchLevel, match_level
from repro.core.state import EncodedState, StateEncoder
from repro.schedulers.base import COLD

from conftest import make_container, make_ctx, make_image, make_invocation, make_spec


@pytest.fixture
def encoder():
    return StateEncoder(n_slots=4)


def decision_point(containers=(), now=0.0, spec=None):
    """``(pool, invocation, cost_model)`` for an arrival of ``spec`` at
    ``now`` with ``containers`` idle."""
    spec = spec or make_spec(name="f", image=make_image("f"))
    ctx = make_ctx(make_invocation(spec, arrival_time=now),
                   idle_containers=containers)
    return ctx.pool, ctx.invocation, ctx.cost_model


def slot_ids(enc):
    return tuple(None if c is None else c.container_id
                 for c in enc.slot_containers)


class TestDimensions:
    def test_state_dim_consistent(self, encoder):
        enc = encoder.encode(*decision_point())
        assert enc.state.shape == (encoder.state_dim,)
        assert enc.mask.shape == (encoder.action_dim,)
        assert encoder.state_dim == (
            encoder.global_dim + encoder.n_slots * encoder.slot_dim
        )

    def test_action_dim(self, encoder):
        assert encoder.action_dim == 5  # 4 slots + cold


class TestMask:
    def test_cold_always_valid(self, encoder):
        enc = encoder.encode(*decision_point())
        assert enc.mask[-1]
        assert not enc.mask[:-1].any()

    def test_matching_container_valid(self, encoder):
        c = make_container(1)  # same default image -> L3
        enc = encoder.encode(*decision_point([c]))
        assert enc.mask[0]
        assert slot_ids(enc)[0] == 1
        assert enc.slot_matches[0] is MatchLevel.L3

    def test_no_match_container_masked(self, encoder):
        c = make_container(1, image=make_image("o", os_name="debian"))
        enc = encoder.encode(*decision_point([c]))
        assert not enc.mask[0]
        assert slot_ids(enc)[0] == 1  # visible but masked

    def test_slots_ranked_by_match_depth(self, encoder):
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        c_l3 = make_container(2)
        c_l2 = make_container(3, image=make_image("y",
                                                  runtime_names=("numpy",)))
        enc = encoder.encode(*decision_point([c_l1, c_l3, c_l2]))
        assert enc.slot_matches[:3] == (
            MatchLevel.L3, MatchLevel.L2, MatchLevel.L1
        )
        assert slot_ids(enc)[:3] == (2, 3, 1)

    def test_full_match_masks_shallower_reuses(self, encoder):
        """A visible L3 match dominates the L2/L1 reuses, which are masked."""
        c_l1 = make_container(1, image=make_image("x", lang_name="nodejs"))
        c_l2 = make_container(3, image=make_image("y",
                                                  runtime_names=("numpy",)))
        shallow = encoder.encode(*decision_point([c_l1, c_l2]))
        assert shallow.mask.tolist() == [True, True, False, False, True]
        encoder.reset()
        enc = encoder.encode(
            *decision_point([c_l1, make_container(2), c_l2])
        )
        assert enc.mask.tolist() == [True, False, False, False, True]

    def test_overflow_keeps_deepest(self, encoder):
        deep = make_container(99)
        shallow = [
            make_container(i, image=make_image(f"s{i}", lang_name="nodejs"))
            for i in range(10)
        ]
        enc = encoder.encode(*decision_point(shallow + [deep]))
        assert slot_ids(enc)[0] == 99


class TestDecisionFor:
    def test_cold_action(self, encoder):
        enc = encoder.encode(*decision_point())
        assert enc.decision_for(encoder.n_slots) == COLD

    def test_warm_action(self, encoder):
        container = make_container(7)
        enc = encoder.encode(*decision_point([container]))
        assert enc.decision_for(0) == (container, False, ())

    def test_empty_slot_means_cold(self, encoder):
        """Paper: actions pointing beyond the pool mean cold start."""
        enc = encoder.encode(*decision_point())
        assert enc.decision_for(2) == COLD

    def test_out_of_range_rejected(self, encoder):
        enc = encoder.encode(*decision_point())
        with pytest.raises(ValueError):
            enc.decision_for(99)


class TestFeatures:
    def test_arrival_interval_tracked(self, encoder):
        encoder.reset()
        e1 = encoder.encode(*decision_point(now=0.0))
        e2 = encoder.encode(*decision_point(now=5.0))
        interval_idx = len(encoder.catalog.key_order()) + 3
        assert e1.state[interval_idx] == pytest.approx(0.0)
        assert e2.state[interval_idx] == pytest.approx(np.log1p(5.0))

    def test_reset_clears_interval(self, encoder):
        encoder.encode(*decision_point(now=0.0))
        encoder.reset()
        e = encoder.encode(*decision_point(now=100.0))
        interval_idx = len(encoder.catalog.key_order()) + 3
        assert e.state[interval_idx] == pytest.approx(0.0)

    def test_bag_of_packages_set(self, encoder):
        enc = encoder.encode(*decision_point())
        n_keys = len(encoder.catalog.key_order())
        bag = enc.state[:n_keys]
        spec_packages = len(make_image("f").packages)
        assert bag.sum() == spec_packages

    def test_demand_accumulates(self, encoder):
        encoder.reset()
        image = make_image("f")
        demand_idx = len(encoder.catalog.key_order()) + 7
        e1 = encoder.encode(*decision_point())
        assert e1.state[demand_idx] == pytest.approx(1.0)  # only arrival
        # Same function again: still the only stack seen.
        e2 = encoder.encode(*decision_point())
        assert e2.state[demand_idx] == pytest.approx(1.0)

    def test_demand_splits_between_stacks(self):
        encoder = StateEncoder(n_slots=2)
        spec_a = make_spec(name="a", image=make_image("a"))
        spec_b = make_spec(
            name="b", image=make_image("b", runtime_names=("numpy",))
        )
        demand_idx = len(encoder.catalog.key_order()) + 7
        encoder.encode(*decision_point(spec=spec_a))
        enc = encoder.encode(*decision_point(spec=spec_b))
        assert 0.0 < enc.state[demand_idx] < 1.0

    def test_finite_features_always(self, encoder):
        containers = [
            make_container(i, image=make_image(f"c{i}"), last_used_at=0.0)
            for i in range(6)
        ]
        enc = encoder.encode(*decision_point(containers))
        assert np.isfinite(enc.state).all()


# ---------------------------------------------------------------------------
# Property: index-based ranking == the sorted-scan reference
# ---------------------------------------------------------------------------

#: Stacks sharing prefixes at every depth with ``_RANKING_IMAGES[0]``.
_RANKING_IMAGES = (
    make_image("a"),                                          # target
    make_image("b", runtime_names=("numpy",)),                # L2
    make_image("c", runtime_names=("flask", "numpy")),        # L2
    make_image("d", lang_name="nodejs", runtime_names=("express",)),  # L1
    make_image("e", os_name="debian"),                        # no match
)


def reference_ranking(pool, image, n_slots):
    """The original rule, written straight: sort the pool least recently
    used first, take the enumerate index as recency, score every container
    with ``match_level`` and select the ``n_slots`` best of
    (depth, recency)."""
    idle = pool.lru_order()
    scored = [
        (-int(match_level(image, container.image)), -recency,
         container.container_id, container)
        for recency, container in enumerate(idle)
    ]
    top = heapq.nsmallest(n_slots, scored)
    return [(container.container_id, MatchLevel(-neg_match))
            for neg_match, _, _, container in top]


# (image index, last_used_at, shard) per container; small time values
# force ties on last_used_at, broken by container id.
_containers = st.lists(
    st.tuples(st.integers(0, len(_RANKING_IMAGES) - 1),
              st.integers(0, 3), st.integers(0, 2)),
    max_size=14,
)


class TestRankingEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=_containers,
        id_seed=st.randoms(use_true_random=False),
        n_shards=st.integers(1, 3),
        n_slots=st.integers(1, 6),
        target=st.integers(0, len(_RANKING_IMAGES) - 1),
    )
    # More reusable containers than slots, with last_used_at ties.
    @example(rows=[(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0), (0, 1, 0),
                   (4, 0, 0)],
             id_seed=None, n_shards=1, n_slots=3, target=0)
    # Fewer reusable than slots: the no-match fill decides the tail.
    @example(rows=[(4, 2, 1), (3, 0, 0), (4, 2, 2), (4, 1, 0)],
             id_seed=None, n_shards=3, n_slots=6, target=0)
    def test_matches_sorted_scan(self, rows, id_seed, n_shards, n_slots,
                                 target):
        ids = list(range(1, len(rows) + 1))
        if id_seed is not None:
            id_seed.shuffle(ids)  # insertion order != id order
        pool = PoolSet(float("inf"), n_shards=n_shards)
        for cid, (image_idx, last_used, shard) in zip(ids, rows):
            pool.add(
                make_container(cid, image=_RANKING_IMAGES[image_idx],
                               last_used_at=float(last_used)),
                shard_index=shard,
            )
        image = _RANKING_IMAGES[target]
        ranked = StateEncoder(n_slots=n_slots)._ranked_candidates(pool, image)
        got = [(container.container_id, level) for container, level in ranked]
        assert got == reference_ranking(pool, image, n_slots)
