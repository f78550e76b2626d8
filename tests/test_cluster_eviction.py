"""Tests for eviction (keep-alive) policies."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.eviction import (
    FaasCacheEviction,
    LRUEviction,
    RejectNewcomerEviction,
)
from repro.cluster.lanes import (
    ArrivalTable,
    LaneKernel,
    LaneSpec,
    scheduler_class,
)
from repro.cluster.pool import WarmPool
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.common import pool_sizes
from repro.workloads.fstartbench import build_workload

from test_cluster_pool import small_container


def filled_pool(capacity=500.0, sizes=(100.0, 100.0, 100.0)):
    pool = WarmPool(capacity)
    for i, mem in enumerate(sizes):
        pool.add(small_container(i, mem=mem))
    return pool


class TestLRUEviction:
    def test_no_eviction_when_fits(self):
        policy = LRUEviction()
        pool = filled_pool()
        assert policy.select_victims(pool, small_container(9), 0.0) == []

    def test_evicts_lru_first(self):
        policy = LRUEviction()
        pool = filled_pool(capacity=300.0)  # full with 3x100
        victims = policy.select_victims(pool, small_container(9), 0.0)
        assert [v.container_id for v in victims] == [0]

    def test_evicts_enough_for_large_newcomer(self):
        policy = LRUEviction()
        pool = filled_pool(capacity=300.0)
        victims = policy.select_victims(
            pool, small_container(9, mem=250.0), 0.0
        )
        assert [v.container_id for v in victims] == [0, 1, 2]

    def test_oversized_newcomer_rejected(self):
        policy = LRUEviction()
        pool = filled_pool(capacity=300.0)
        assert policy.select_victims(
            pool, small_container(9, mem=400.0), 0.0
        ) is None

    def test_no_ttl(self):
        assert LRUEviction().ttl_s is None


class TestRejectNewcomer:
    def test_accepts_when_space(self):
        policy = RejectNewcomerEviction()
        pool = filled_pool(capacity=500.0)
        assert policy.select_victims(pool, small_container(9), 0.0) == []

    def test_rejects_when_full(self):
        policy = RejectNewcomerEviction()
        pool = filled_pool(capacity=300.0)
        assert policy.select_victims(pool, small_container(9), 0.0) is None

    def test_default_ttl_10_minutes(self):
        assert RejectNewcomerEviction().ttl_s == 600.0

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError):
            RejectNewcomerEviction(ttl_s=0.0)


class TestFaasCache:
    def test_no_eviction_when_fits(self):
        policy = FaasCacheEviction()
        pool = filled_pool()
        assert policy.select_victims(pool, small_container(9), 0.0) == []

    def test_evicts_lowest_priority(self):
        policy = FaasCacheEviction()
        pool = WarmPool(300.0)
        cheap = small_container(1)
        cheap.current_function = "cheap"
        precious = small_container(2)
        precious.current_function = "precious"
        filler = small_container(3)
        filler.current_function = "filler"
        for c in (cheap, precious, filler):
            pool.add(c)
        # precious: frequent and expensive to restart; cheap: rarely used.
        for _ in range(10):
            policy.on_function_start("precious", 5.0, 100.0, 0.0)
        policy.on_function_start("cheap", 0.2, 100.0, 0.0)
        policy.on_function_start("filler", 0.5, 100.0, 0.0)
        victims = policy.select_victims(pool, small_container(9), 0.0)
        assert victims and victims[0].container_id == 1  # cheap goes first

    def test_clock_advances_on_eviction(self):
        policy = FaasCacheEviction()
        pool = filled_pool(capacity=300.0)
        policy.on_function_start("img0", 1.0, 100.0, 0.0)
        before = policy._clock
        policy.select_victims(pool, small_container(9), 0.0)
        assert policy._clock >= before

    def test_cost_keeps_maximum(self):
        policy = FaasCacheEviction()
        policy.on_function_start("f", 5.0, 10.0, 0.0)
        policy.on_function_start("f", 0.1, 10.0, 0.0)  # lucky warm start
        assert policy._cost["f"] == 5.0

    def test_reset_clears_state(self):
        policy = FaasCacheEviction()
        policy.on_function_start("f", 5.0, 10.0, 0.0)
        policy.reset()
        assert not policy._freq and not policy._cost and policy._clock == 0.0

    def test_oversized_rejected(self):
        policy = FaasCacheEviction()
        pool = filled_pool(capacity=300.0)
        assert policy.select_victims(
            pool, small_container(9, mem=301.0), 0.0
        ) is None


# -- the select_victims contract: a fitting newcomer is never asked about -----

POLICIES = (LRUEviction, RejectNewcomerEviction, FaasCacheEviction)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.floats(1.0, 500.0), max_size=8),
    spare=st.floats(1.0, 1000.0),
    share=st.floats(0.0, 1.0),
    starts=st.lists(
        st.tuples(st.integers(0, 9), st.floats(0.01, 10.0)), max_size=12
    ),
)
def test_every_policy_returns_no_victims_for_a_fitting_newcomer(
    sizes, spare, share, starts
):
    """On a random pool, each policy admits any newcomer that fits the
    free memory (the boundary ``share == 1`` included) with ``[]`` and
    no side effect: the engines' keep-alive skips the call on a fit,
    which is only sound while this holds."""
    pool = filled_pool(capacity=sum(sizes) + spare, sizes=sizes)
    incoming = small_container(99, mem=share * pool.free_mb)
    assert incoming.image.memory_mb <= pool.free_mb
    for policy_class in POLICIES:
        policy = policy_class()
        for index, cost in starts:
            policy.on_function_start(f"img{index}", cost, 100.0, 0.0)
        before = copy.deepcopy(vars(policy))
        assert policy.select_victims(pool, incoming, 0.0) == []
        assert vars(policy) == before


@pytest.mark.parametrize("key", ["lru", "keepalive", "faascache"])
def test_no_engine_asks_the_policy_about_a_fitting_newcomer(
    key, monkeypatch
):
    """A counting wrapper on the key's eviction policy sees no fitting
    newcomer from a lane or from ``ClusterSimulator.run`` on a Tight pool,
    and does see the newcomers that do not fit."""
    scheduler_type = scheduler_class(key)
    policy_class = type(scheduler_type().make_eviction_policy())
    rule = policy_class.select_victims
    fits = []

    def counted(self, pool, incoming, now):
        fits.append(incoming.image.memory_mb <= pool.free_mb)
        return rule(self, pool, incoming, now)

    monkeypatch.setattr(policy_class, "select_victims", counted)
    workload = build_workload("Overall", seed=0)
    capacity = pool_sizes(workload)["Tight"]
    LaneKernel([LaneSpec(key, ArrivalTable(workload), capacity)]).run()
    lane_fits = list(fits)
    fits.clear()
    scheduler = scheduler_type()
    ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity),
        scheduler.make_eviction_policy(),
    ).run(workload, scheduler)
    assert lane_fits and fits
    assert not any(lane_fits)
    assert not any(fits)
