"""Integration-level tests for the cluster simulator."""

import pytest

from repro.cluster.eviction import LRUEviction, RejectNewcomerEviction
from repro.cluster.simulator import (
    ClusterSimulator,
    InvalidDecisionError,
    SimulationConfig,
)
from repro.containers.matching import MatchLevel
from repro.schedulers.base import COLD
from repro.schedulers.coldonly import ColdOnlyScheduler
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.lru import LRUScheduler
from repro.workloads.workload import Workload

from conftest import make_container, make_image, make_invocation, make_spec


def workload_of(invocations, name="test"):
    return Workload.from_invocations(name, invocations)


def spec_a(name="fa"):
    return make_spec(name=name, image=make_image("a"))


def spec_b(name="fb"):
    return make_spec(
        name=name, image=make_image("b", runtime_names=("numpy",))
    )


def warm(container):
    """A reuse decision for ``container`` (validated by the simulator)."""
    return container, False, ()


def sim(capacity=10_000.0, policy=None):
    return ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity), policy or LRUEviction()
    )


class TestConservation:
    def test_every_arrival_recorded_once(self):
        wl = workload_of([
            make_invocation(spec_a(), i, arrival_time=float(i))
            for i in range(10)
        ])
        result = sim().run(wl, ColdOnlyScheduler())
        t = result.telemetry
        assert t.n_invocations == 10
        assert sorted(r.invocation_id for r in t.records) == list(range(10))

    def test_cold_only_never_reuses(self):
        wl = workload_of([
            make_invocation(spec_a(), i, arrival_time=float(i))
            for i in range(5)
        ])
        t = sim().run(wl, ColdOnlyScheduler()).telemetry
        assert t.cold_starts == 5
        assert len({r.container_id for r in t.records}) == 5


class TestWarmReuse:
    def test_exact_match_reused_after_completion(self):
        # Second arrival lands after the first completes: warm start.
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=0.5),
            make_invocation(spec_a("fa2"), 1, arrival_time=100.0),
        ])
        t = sim().run(wl, LRUScheduler()).telemetry
        assert t.cold_starts == 1
        assert t.records[1].match is MatchLevel.L3
        assert t.records[1].container_id == t.records[0].container_id

    def test_no_reuse_while_busy(self):
        # Second arrival lands during the first's execution: must cold-start.
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=1000.0),
            make_invocation(spec_a("fa2"), 1, arrival_time=1.0),
        ])
        t = sim().run(wl, LRUScheduler()).telemetry
        assert t.cold_starts == 2

    def test_multilevel_reuse_repacks_container(self):
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=0.5),
            make_invocation(spec_b(), 1, arrival_time=100.0),
        ])
        t = sim().run(wl, GreedyMatchScheduler()).telemetry
        assert t.records[1].match is MatchLevel.L2
        assert t.records[1].container_id == t.records[0].container_id

    def test_warm_latency_lower_than_cold(self):
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=0.5),
            make_invocation(spec_a("fa2"), 1, arrival_time=100.0),
        ])
        t = sim().run(wl, LRUScheduler()).telemetry
        assert t.records[1].startup_latency_s < t.records[0].startup_latency_s


class TestEvictionIntegration:
    def test_pool_capacity_respected(self):
        # Capacity fits one container only; three sequential functions.
        image_mem = make_image("a").memory_mb
        wl = workload_of([
            make_invocation(spec_a(f"f{i}"), i, arrival_time=50.0 * i,
                            execution_time_s=0.5)
            for i in range(3)
        ])
        s = sim(capacity=image_mem * 1.5)
        t = s.run(wl, ColdOnlyScheduler()).telemetry
        assert t.evictions == 2  # each completion evicts the previous
        assert t.peak_warm_memory_mb <= image_mem * 1.5

    def test_reject_newcomer_policy_rejects(self):
        image_mem = make_image("a").memory_mb
        wl = workload_of([
            make_invocation(spec_a(f"f{i}"), i, arrival_time=50.0 * i,
                            execution_time_s=0.5)
            for i in range(3)
        ])
        s = sim(capacity=image_mem * 1.5,
                policy=RejectNewcomerEviction(ttl_s=1e6))
        t = s.run(wl, ColdOnlyScheduler()).telemetry
        assert t.evictions == 0
        assert t.keep_alive_rejections == 2

    def test_ttl_expiry(self):
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=0.5),
            # Arrives long after the 10-minute TTL.
            make_invocation(spec_a("fa2"), 1, arrival_time=2000.0),
        ])
        s = sim(policy=RejectNewcomerEviction(ttl_s=600.0))
        t = s.run(wl, LRUScheduler()).telemetry
        assert t.ttl_expirations == 1
        assert t.cold_starts == 2


class TestInvalidDecisions:
    def test_unknown_container_id(self):
        s = sim()
        s.load(workload_of([make_invocation(spec_a(), 0)]))
        assert s.next_decision_point() is not None
        with pytest.raises(InvalidDecisionError):
            s.apply_decision(warm(make_container(999)))

    def test_no_match_container_rejected(self):
        first = spec_a()
        other_os = make_spec(name="fo",
                             image=make_image("o", os_name="debian"))
        wl = workload_of([
            make_invocation(first, 0, arrival_time=0.0,
                            execution_time_s=0.5),
            make_invocation(other_os, 1, arrival_time=100.0),
        ])
        s = sim()
        s.load(wl)
        s.next_decision_point()
        s.apply_decision(COLD)
        ctx = s.next_decision_point()
        (pooled,) = ctx.pool.containers()
        with pytest.raises(InvalidDecisionError):
            s.apply_decision(warm(pooled))

    def test_rejected_decision_keeps_invocation_pending(self):
        # Regression: apply_decision used to pop the pending invocation
        # before validating, so a rejected decision lost the arrival and
        # next_decision_point() skipped it entirely.
        s = sim()
        s.load(workload_of([make_invocation(spec_a(), 0)]))
        assert s.next_decision_point() is not None
        with pytest.raises(InvalidDecisionError):
            s.apply_decision(warm(make_container(999)))
        # The arrival is still pending: retrying with a valid decision works.
        record = s.apply_decision(COLD)
        assert record.invocation_id == 0
        t = s.finish().telemetry
        assert t.n_invocations == 1

    def test_rejected_decision_leaves_cluster_untouched(self):
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=0.5),
            make_invocation(spec_a("fa2"), 1, arrival_time=100.0),
        ])
        s = sim()
        s.load(wl)
        s.next_decision_point()
        s.apply_decision(COLD)
        ctx = s.next_decision_point()
        (pooled,) = ctx.pool.containers()
        warm_id = pooled.container_id
        pooled_before = len(s.pool.containers())
        with pytest.raises(InvalidDecisionError):
            s.apply_decision(warm(make_container(warm_id + 1)))
        assert len(s.pool.containers()) == pooled_before
        # The warm container is still claimable after the failed attempt.
        record = s.apply_decision(warm(pooled))
        assert record.container_id == warm_id
        assert not record.cold_start


class TestIncrementalAPI:
    def test_run_equals_incremental(self):
        wl = workload_of([
            make_invocation(spec_a(f"f{i}"), i, arrival_time=10.0 * i,
                            execution_time_s=0.5)
            for i in range(6)
        ])
        batch = sim().run(wl, LRUScheduler()).telemetry

        s2 = sim()
        sched = LRUScheduler()
        s2.load(wl)
        while (ctx := s2.next_decision_point()) is not None:
            s2.apply_decision(
                sched.decide(ctx.pool, ctx.invocation, ctx.cost_model)
            )
        inc = s2.finish("LRU").telemetry
        assert batch.total_startup_latency_s == pytest.approx(
            inc.total_startup_latency_s
        )
        assert batch.cold_starts == inc.cold_starts

    def test_double_apply_rejected(self):
        s = sim()
        s.load(workload_of([make_invocation(spec_a(), 0)]))
        s.next_decision_point()
        s.apply_decision(COLD)
        with pytest.raises(RuntimeError):
            s.apply_decision(COLD)

    def test_finish_with_pending_rejected(self):
        s = sim()
        s.load(workload_of([make_invocation(spec_a(), 0)]))
        s.next_decision_point()
        with pytest.raises(RuntimeError):
            s.finish()

    def test_time_advances_monotonically(self):
        wl = workload_of([
            make_invocation(spec_a(f"f{i}"), i, arrival_time=5.0 * i)
            for i in range(4)
        ])
        s = sim()
        s.load(wl)
        stamps = []
        while (ctx := s.next_decision_point()) is not None:
            stamps.append(s.now)
            s.apply_decision(COLD)
        assert stamps == sorted(stamps)


class TestTelemetryDetails:
    def test_breakdown_total_matches_latency(self):
        wl = workload_of([make_invocation(spec_a(), 0)])
        t = sim().run(wl, ColdOnlyScheduler()).telemetry
        r = t.records[0]
        assert r.breakdown.total_s == pytest.approx(r.startup_latency_s)

    def test_peak_live_memory_positive(self):
        wl = workload_of([make_invocation(spec_a(), 0)])
        t = sim().run(wl, ColdOnlyScheduler()).telemetry
        assert t.peak_live_memory_mb > 0
