"""Tests for the layered simulator: event loop, placement and queueing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.eventloop import EventLoop, VirtualClock
from repro.cluster.eviction import LRUEviction
from repro.cluster.placement import PlacementEngine
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.lru import LRUScheduler
from repro.workloads.fstartbench import hi_sim_workload
from repro.workloads.workload import Workload

from conftest import make_image, make_invocation, make_spec


def workload_of(invocations, name="test"):
    return Workload.from_invocations(name, invocations)


def spec_a(name="fa"):
    return make_spec(name=name, image=make_image("a"))


class TestSimulationClock:
    def test_advances_forward(self):
        clock = VirtualClock()
        assert clock.advance_to(5.0) == 5.0
        assert clock.now == 5.0

    def test_never_rewinds(self):
        clock = VirtualClock(start=10.0)
        assert clock.advance_to(3.0) == 10.0
        assert clock.now == 10.0


class TestEventLoop:
    def test_pop_advances_clock_in_time_order(self):
        loop = EventLoop()
        loop.schedule(2.0, "b")
        loop.schedule(1.0, "a")
        assert loop.pop_next().payload == "a"
        assert loop.now == 1.0
        assert loop.pop_next().payload == "b"
        assert loop.now == 2.0
        assert loop.pop_next() is None

    def test_sweep_runs_once_per_pop_after_advance(self):
        seen = []
        loop = EventLoop()
        loop.schedule(1.0)
        loop.schedule(4.0)
        loop.pop_next(seen.append)
        loop.pop_next(seen.append)
        assert seen == [1.0, 4.0]
        loop.pop_next(seen.append)  # empty queue: no sweep
        assert seen == [1.0, 4.0]

    def test_len_and_peek(self):
        loop = EventLoop()
        assert not loop and len(loop) == 0 and not loop.heap
        loop.schedule(1.0, "x")
        assert loop and len(loop) == 1
        assert loop.heap[0].payload == "x"


class TestPlacementEngine:
    def engine(self, n=2, limit=None):
        return PlacementEngine(n, concurrency_limit=limit)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            self.engine(limit=0)

    def test_at_least_one_worker(self):
        with pytest.raises(ValueError):
            self.engine(n=0)

    def test_no_limit_uses_least_memory_rule(self):
        eng = self.engine(n=2)
        assert eng.place(1, 100.0, now=0.0) == 0  # tie: lower id
        assert eng.select_worker(now=0.0) == 1

    def test_least_loaded_placement(self):
        eng = self.engine(n=2)
        eng.place(1, 100.0, now=0.0)
        eng.place(2, 50.0, now=0.0)   # goes to the other worker
        eng.place(3, 10.0, now=0.0)   # goes to the lighter worker (#2's)
        assert eng.worker_of(1) != eng.worker_of(2)
        assert eng.worker_of(3) == eng.worker_of(2)
        assert eng.memory_mb == [100.0, 60.0]

    def test_equal_memory_breaks_ties_by_worker_id(self):
        eng = self.engine(n=3)
        eng.place(1, 10.0, now=0.0)
        eng.place(2, 10.0, now=0.0)
        eng.place(3, 10.0, now=0.0)
        assert [eng.worker_of(c) for c in (1, 2, 3)] == [0, 1, 2]
        eng.release(2, 10.0)
        eng.release(1, 10.0)
        assert eng.place(4, 5.0, now=0.0) == 0

    def test_release_rebalances(self):
        eng = self.engine(n=2)
        eng.place(1, 100.0, now=0.0)
        eng.place(2, 50.0, now=0.0)
        eng.release(1, 100.0)
        assert eng.place(3, 10.0, now=0.0) == 0  # worker 0 is now empty

    def test_duplicate_placement_rejected(self):
        eng = self.engine()
        eng.place(1, 10.0, now=0.0)
        with pytest.raises(ValueError):
            eng.place(1, 10.0, now=0.0)

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            self.engine().release(42, 1.0)

    def test_memory_never_negative(self):
        eng = self.engine(n=1)
        eng.place(1, 10.0, now=0.0)
        eng.release(1, 999.0)  # over-release clamps to zero
        assert eng.memory_mb == [0.0]

    def test_no_limit_admits_immediately(self):
        eng = self.engine(n=1)
        assert eng.admit(0, now=5.0, hold_s=100.0) == (5.0, 0.0)
        assert eng.admit(0, now=5.0, hold_s=100.0) == (5.0, 0.0)
        assert eng.queue_depths(5.0) == (0,)
        assert not eng.queueing_enabled

    def test_limit_queues_fifo_with_exact_start_times(self):
        eng = self.engine(n=1, limit=1)
        assert eng.admit(0, now=0.0, hold_s=10.0) == (0.0, 0.0)
        # Second startup waits for the first slot to free at t=10.
        assert eng.admit(0, now=1.0, hold_s=10.0) == (10.0, 9.0)
        # Third queues behind both: starts at t=20.
        assert eng.admit(0, now=2.0, hold_s=10.0) == (20.0, 18.0)
        assert eng.queue_depths(2.0) == (2,)
        # After everything drains the queue view empties.
        assert eng.queue_depths(100.0) == (0,)

    def test_limit_two_runs_pairs_concurrently(self):
        eng = self.engine(n=1, limit=2)
        assert eng.admit(0, now=0.0, hold_s=10.0)[1] == 0.0
        assert eng.admit(0, now=0.0, hold_s=10.0)[1] == 0.0
        start, delay = eng.admit(0, now=0.0, hold_s=10.0)
        assert (start, delay) == (10.0, 10.0)

    def test_freed_slots_admit_immediately(self):
        eng = self.engine(n=1, limit=1)
        eng.admit(0, now=0.0, hold_s=10.0)
        assert eng.admit(0, now=11.0, hold_s=5.0) == (11.0, 0.0)

    def test_limit_balances_on_inflight(self):
        eng = self.engine(n=2, limit=4)
        # Worker 0 hosts more memory but fewer in-flight startups.
        assert eng.place(1, 500.0, now=0.0) == 0
        eng.admit(1, now=0.0, hold_s=100.0)
        assert eng.select_worker(now=0.0) == 0


#: One step of an admission run: a place (select, book and admit a
#: startup) or a release of a placed container, after a clock step.  Times,
#: holds and memory come in quarter steps and hundreds so ties are common.
_STEPS = st.tuples(
    st.sampled_from(["place", "place", "release"]),
    st.integers(0, 8).map(lambda k: k * 0.25),
    st.integers(1, 16).map(lambda k: k * 0.25),
    st.integers(1, 4).map(lambda k: k * 100.0),
    st.integers(0, 1000),
)


@settings(max_examples=150, deadline=None)
@given(
    n_workers=st.integers(1, 5),
    limit=st.integers(1, 3),
    steps=st.lists(_STEPS, min_size=1, max_size=60),
)
def test_one_pass_selection_and_admitted_depth_match_full_scans(
    n_workers, limit, steps
):
    """``select_worker`` is the rule ``min(range(n), key=(in-flight count,
    memory, worker id))``, and the running maximum of the admitted
    worker's ``queue_depth`` is the running maximum of
    ``max(queue_depths(now))``, at every decision."""
    eng = PlacementEngine(n_workers, concurrency_limit=limit)
    # The test's own books: release times of every admitted startup, and
    # the placed containers with the memory they were booked at.
    releases = [[] for _ in range(n_workers)]
    placed = []
    ids = itertools.count()
    now = 0.0
    admitted_max = scanned_max = 0
    for kind, step, hold_s, memory_mb, pick in steps:
        now += step
        if kind == "release" and placed:
            container_id, mb = placed.pop(pick % len(placed))
            eng.release(container_id, mb)
            continue
        expected = min(
            range(n_workers),
            key=lambda w: (
                sum(1 for r in releases[w] if r > now), eng.memory_mb[w], w
            ),
        )
        worker = eng.select_worker(now)
        assert worker == expected
        container_id = next(ids)
        assert eng.place(container_id, memory_mb, now) == worker
        placed.append((container_id, memory_mb))
        start, _ = eng.admit(worker, now, hold_s)
        releases[worker].append(start + hold_s)
        admitted_max = max(admitted_max, eng.queue_depth(worker, now))
        scanned_max = max(scanned_max, max(eng.queue_depths(now)))
        assert admitted_max == scanned_max


def queueing_sim(n_workers, limit, capacity=2048.0):
    sched = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity, n_workers=n_workers,
                         worker_concurrency=limit),
        sched.make_eviction_policy(),
    )
    return sim, sched


class TestQueueingIntegration:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(pool_capacity_mb=1024.0, worker_concurrency=0)

    def test_hi_sim_queues_under_finite_limit(self):
        sim, sched = queueing_sim(n_workers=2, limit=1)
        result = sim.run(hi_sim_workload(seed=0), sched)
        summary = result.summary()
        assert summary["total_queueing_s"] > 0
        assert summary["queued_starts"] > 0
        assert summary["max_queue_depth"] >= 1
        assert 0 < summary["mean_worker_utilization"] <= 1.0

    def test_n_workers_changes_mean_startup_latency(self):
        means = []
        for n in (1, 4):
            sim, sched = queueing_sim(n_workers=n, limit=2)
            means.append(
                sim.run(hi_sim_workload(seed=0), sched).summary()["mean_startup_s"]
            )
        assert means[1] < means[0]

    def test_latency_decomposes_into_queue_plus_service(self):
        sim, sched = queueing_sim(n_workers=1, limit=1)
        t = sim.run(hi_sim_workload(seed=0), sched).telemetry
        for r in t.records:
            assert r.startup_latency_s == pytest.approx(
                r.queue_delay_s + r.service_latency_s
            )
            assert r.queue_delay_s >= 0
            assert 0 <= r.worker_id < 1

    def test_queued_startup_completes_after_slot_frees(self):
        # One worker, one slot: the second concurrent startup's record must
        # carry the wait for the first invocation's startup + execution.
        wl = workload_of([
            make_invocation(spec_a(), 0, arrival_time=0.0,
                            execution_time_s=10.0),
            make_invocation(spec_a("fa2"), 1, arrival_time=1.0,
                            execution_time_s=1.0),
        ])
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0, n_workers=1,
                             worker_concurrency=1),
            LRUEviction(),
        )
        t = sim.run(wl, LRUScheduler()).telemetry
        first, second = t.records
        slot_frees = first.arrival_time + first.startup_latency_s + 10.0
        assert second.queue_delay_s == pytest.approx(
            slot_frees - second.arrival_time
        )

    def test_summary_keys_absent_without_limit(self):
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0), LRUEviction()
        )
        summary = sim.run(
            workload_of([make_invocation(spec_a(), 0)]), LRUScheduler()
        ).summary()
        assert "total_queueing_s" not in summary
        assert "mean_worker_utilization" not in summary

    def test_disabled_limit_matches_unconstrained_run(self):
        # A limit high enough to never bind must reproduce the
        # no-admission-control latencies exactly.
        wl = hi_sim_workload(seed=1, n=120)
        base_sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2048.0), LRUEviction()
        )
        base = base_sim.run(wl, LRUScheduler()).telemetry
        big_sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2048.0, n_workers=4,
                             worker_concurrency=10_000),
            LRUEviction(),
        )
        big = big_sim.run(wl, LRUScheduler()).telemetry
        assert [r.startup_latency_s for r in base.records] == [
            r.startup_latency_s for r in big.records
        ]
        assert big.total_queueing_s == 0.0

    def test_context_exposes_load_views(self):
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0, n_workers=3,
                             worker_concurrency=2),
            LRUEviction(),
        )
        sim.load(workload_of([make_invocation(spec_a(), 0)]))
        ctx = sim.next_decision_point()
        # The load views live on the simulator's placement engine; the
        # context itself carries no per-worker copies.
        assert sim.placement.memory_mb == [0.0, 0.0, 0.0]
        assert sim.placement._placement == {}
        assert sim.placement.queue_depths(sim.now) == (0, 0, 0)
        record = sim.apply_decision(
            LRUScheduler().decide(ctx.pool, ctx.invocation, ctx.cost_model)
        )
        assert record.worker_id in (0, 1, 2)
        sim.finish()
