"""Property-based tests: simulator invariants under random workloads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.eviction import LRUEviction, RejectNewcomerEviction
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.containers.matching import MatchLevel
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.keepalive import KeepAliveScheduler
from repro.schedulers.lru import LRUScheduler
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation, Workload

# Random workload strategy: a handful of FStartBench functions with random
# arrivals and execution times.
invocation_strategy = st.tuples(
    st.sampled_from([1, 2, 4, 5, 6, 10, 11]),         # func type
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),  # arrival
    st.floats(min_value=0.05, max_value=5.0, allow_nan=False),   # exec time
)

workload_strategy = st.lists(invocation_strategy, min_size=1, max_size=40)

scheduler_strategy = st.sampled_from([
    LRUScheduler, GreedyMatchScheduler, KeepAliveScheduler,
])

capacity_strategy = st.sampled_from([300.0, 800.0, 2000.0, float("inf")])


def build_workload(items) -> Workload:
    ordered = sorted(items, key=lambda item: item[1])
    return Workload.from_invocations("prop", [
        Invocation(
            invocation_id=i,
            spec=function_by_id(fid),
            arrival_time=t,
            execution_time_s=e,
        )
        for i, (fid, t, e) in enumerate(ordered)
    ])


@settings(max_examples=40, deadline=None)
@given(items=workload_strategy, scheduler_cls=scheduler_strategy,
       capacity=capacity_strategy)
def test_simulator_invariants(items, scheduler_cls, capacity):
    workload = build_workload(items)
    scheduler = scheduler_cls()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(workload, scheduler)
    t = result.telemetry

    # 1. Conservation: every invocation handled exactly once, in order.
    assert t.n_invocations == len(workload)
    assert [r.invocation_id for r in t.records] == list(range(len(workload)))

    # 2. Capacity: the warm pool never exceeds its capacity (the peak
    #    bounds every sample).
    if np.isfinite(capacity):
        assert t.peak_warm_memory_mb <= capacity + 1e-6

    # 3. Cold/warm consistency: warm starts carry a reusable match level
    #    and cost no more than the same function's cold start would.
    spec_by_name = {s.name: s for s in workload.function_specs()}
    for r in t.records:
        if r.cold_start:
            assert r.match is MatchLevel.NO_MATCH
        else:
            assert r.match.is_reusable
        spec = spec_by_name[r.function_name]
        cold = sim.config.cost_model.latency_s(
            spec.image, MatchLevel.NO_MATCH, spec.function_init_s
        )
        if r.cold_start:
            assert r.startup_latency_s == pytest.approx(cold)
        else:
            assert r.startup_latency_s <= cold + 1e-9

    # 4. Counters are internally consistent.
    assert t.cold_starts + t.warm_starts == t.n_invocations
    assert t.evictions >= 0 and t.keep_alive_rejections >= 0


@settings(max_examples=25, deadline=None)
@given(items=workload_strategy)
def test_container_never_serves_two_functions_at_once(items):
    """No container runs overlapping invocations (claim discipline)."""
    workload = build_workload(items)
    scheduler = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=float("inf")), LRUEviction()
    )
    t = sim.run(workload, scheduler).telemetry
    busy: dict = {}
    for r in sorted(t.records, key=lambda r: r.arrival_time):
        start = r.arrival_time
        end = r.finish_time
        intervals = busy.setdefault(r.container_id, [])
        for s, e in intervals:
            assert end <= s + 1e-9 or start >= e - 1e-9, (
                f"container {r.container_id} double-booked"
            )
        intervals.append((start, end))


@settings(max_examples=25, deadline=None)
@given(items=workload_strategy,
       ttl=st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
def test_ttl_never_reuses_expired_containers(items, ttl):
    """With a TTL policy, no warm reuse spans an idle gap longer than TTL."""
    workload = build_workload(items)
    scheduler = KeepAliveScheduler(ttl_s=ttl)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=float("inf")),
        scheduler.make_eviction_policy(),
    )
    t = sim.run(workload, scheduler).telemetry
    last_finish: dict = {}
    for r in sorted(t.records, key=lambda r: r.arrival_time):
        if not r.cold_start:
            idle_gap = r.arrival_time - last_finish[r.container_id]
            assert idle_gap <= ttl + 1e-6
        last_finish[r.container_id] = r.finish_time
