"""Time-source abstraction: VirtualClock, WallClock, the event loop's
clock, and the simulator's online feed (offer / pump_until)."""

import pytest

from repro.cluster import (
    ClusterSimulator,
    EventLoop,
    SimulationConfig,
    TimeSource,
    VirtualClock,
    WallClock,
)
from repro.schedulers.base import COLD
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation


def _invocation(i, t, exec_s=0.5):
    return Invocation(
        invocation_id=i,
        spec=function_by_id(4),
        arrival_time=t,
        execution_time_s=exec_s,
    )


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

class TestVirtualClock:
    def test_starts_at_zero_and_moves_forward(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance_to(3.5) == 3.5
        assert clock.now == 3.5

    def test_never_rewinds(self):
        clock = VirtualClock(start=10.0)
        assert clock.advance_to(4.0) == 10.0
        assert clock.now == 10.0

    def test_satisfies_protocol(self):
        assert isinstance(VirtualClock(), TimeSource)
        assert isinstance(WallClock(), TimeSource)


class TestWallClock:
    def test_reads_relative_to_epoch(self):
        readings = iter([100.0, 101.5, 103.25])
        clock = WallClock(monotonic=lambda: next(readings))
        assert clock.now == 1.5
        assert clock.now == 3.25

    def test_advance_to_is_a_forward_floor(self):
        readings = iter([0.0, 1.0, 2.0, 10.0])
        clock = WallClock(monotonic=lambda: next(readings))
        # Floor above the wall reading: now clamps up to the floor.
        assert clock.advance_to(5.0) == 5.0
        assert clock.now == 5.0  # raw reading 2.0 < floor
        assert clock.now == 10.0  # raw reading past the floor again

    def test_never_rewinds_on_misbehaving_source(self):
        readings = iter([0.0, 7.0, 3.0, 3.0])
        clock = WallClock(monotonic=lambda: next(readings))
        assert clock.advance_to(clock.now) == 7.0  # floor at first reading
        assert clock.now == 7.0  # source regressed to 3.0; floor holds


# ---------------------------------------------------------------------------
# EventLoop clock: no-event advancement
# ---------------------------------------------------------------------------

class TestEventLoopClock:
    def test_advance_to_runs_sweep_and_observer(self):
        calls = []
        loop = EventLoop(observer=lambda kind, t: calls.append((kind, t)))
        assert loop.advance_to(
            4.0, lambda now: calls.append(("sweep", now))
        ) == 4.0
        assert loop.now == 4.0
        assert ("advance", 4.0) in calls
        assert ("sweep", 4.0) in calls

    def test_advance_to_never_rewinds(self):
        loop = EventLoop()
        loop.advance_to(9.0)
        assert loop.advance_to(1.0) == 9.0


# ---------------------------------------------------------------------------
# ClusterSimulator online feed
# ---------------------------------------------------------------------------

class TestOffer:
    def test_offered_arrival_reaches_decision_point(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.offer(_invocation(0, 1.25))
        ctx = sim.next_decision_point()
        assert ctx is not None and sim.now == 1.25
        assert ctx.invocation.arrival_time == 1.25
        record = sim.apply_decision(COLD)
        assert record.cold_start and record.arrival_time == 1.25

    def test_out_of_order_offer_rejected(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.offer(_invocation(0, 5.0))
        with pytest.raises(ValueError, match="out of order"):
            sim.offer(_invocation(1, 4.0))

    def test_offer_after_finish_rejected(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.finish()
        with pytest.raises(RuntimeError, match="finished"):
            sim.offer(_invocation(0, 0.0))


class TestPumpUntil:
    def _run_one(self, sim, t=1.0):
        sim.offer(_invocation(0, t))
        sim.next_decision_point()
        return sim.apply_decision(COLD)

    def test_processes_due_completions(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        record = self._run_one(sim)
        ready_at = 1.0 + record.startup_latency_s
        done_at = ready_at + record.execution_time_s
        # Not yet due: nothing processed, but the clock advances.
        assert sim.pump_until(ready_at - 0.1) == 0
        assert sim.now == ready_at - 0.1
        # Still running at ready_at: the one completion waits for done_at.
        assert sim.pump_until(ready_at + 0.5 * record.execution_time_s) == 0
        assert len(sim.pool) == 0
        # Due: the invocation's one completion fires, container pools.
        assert sim.pump_until(done_at + 0.1) == 1
        assert len(sim.pool) == 1

    def test_trailing_sweep_expires_ttl(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.eviction.ttl_s = 5.0
        self._run_one(sim)
        sim.pump_until(20.0)  # completions fire, then the sweep at t=20
        assert len(sim.pool) == 0
        assert sim.lifecycle.destroyed_count == 1
        assert sim.telemetry.ttl_expirations == 1

    def test_refuses_undecided_arrival(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.offer(_invocation(0, 1.0))
        with pytest.raises(RuntimeError, match="undecided arrival"):
            sim.pump_until(2.0)

    def test_refuses_pending_decision(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.offer(_invocation(0, 1.0))
        sim.next_decision_point()
        with pytest.raises(RuntimeError, match="pending"):
            sim.pump_until(2.0)

    def test_pump_is_decision_neutral(self):
        """Extra pumps between arrivals never change scheduling outcomes."""
        def run(pump: bool):
            sim = ClusterSimulator(
                SimulationConfig(pool_capacity_mb=10_000.0, verify=True)
            )
            from repro.schedulers.greedy import GreedyMatchScheduler

            scheduler = GreedyMatchScheduler()
            records = []
            for i, t in enumerate([1.0, 4.0, 9.0, 9.1, 30.0]):
                if pump:
                    # Sweep at several wall instants before the arrival.
                    for tick in (t - 0.6, t - 0.3, t - 0.05):
                        if tick > sim.now:
                            sim.pump_until(tick)
                sim.offer(_invocation(i, t))
                ctx = sim.next_decision_point()
                decision = scheduler.decide(
                    ctx.pool, ctx.invocation, ctx.cost_model)
                records.append(sim.apply_decision(decision))
            sim.finish()
            return records

        assert run(pump=False) == run(pump=True)


class TestArrivalSlot:
    """Every driver fills the simulator's one arrival slot the same way."""

    def test_offer_behind_the_clock_rejected(self):
        # Without verify, too: no monitor is needed to catch the arrival.
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.pump_until(10.0)
        with pytest.raises(ValueError, match="arrival 0 .*behind the clock"):
            sim.offer(_invocation(0, 5.0))
        # The rejected arrival left the slot empty.
        assert sim.next_decision_point() is None
        sim.offer(_invocation(1, 10.0))
        assert sim.next_decision_point().invocation.invocation_id == 1

    def test_out_of_order_load_rejected(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.load([_invocation(0, 2.0), _invocation(1, 1.0)])
        # The source is pulled lazily: the late arrival is found when it
        # would refill the slot.
        with pytest.raises(ValueError, match="arrival 1 out of order"):
            sim.next_decision_point()

    def test_offer_while_source_loaded_rejected(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.load([_invocation(0, 1.0), _invocation(1, 2.0)])
        with pytest.raises(RuntimeError, match="loaded source"):
            sim.offer(_invocation(2, 3.0))
        sim.next_decision_point()
        sim.apply_decision(COLD)
        with pytest.raises(RuntimeError, match="loaded source"):
            sim.offer(_invocation(2, 3.0))
        sim.next_decision_point()
        sim.apply_decision(COLD)
        # The source is exhausted: the online feed may take over.
        sim.offer(_invocation(2, 3.0))
        assert sim.next_decision_point().invocation.invocation_id == 2

    def test_load_while_offer_pending_rejected(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.offer(_invocation(0, 1.0))
        with pytest.raises(RuntimeError, match="arrival 0 is still undecided"):
            sim.load([_invocation(1, 2.0)])

    def test_second_offer_while_first_undecided_rejected(self):
        sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0))
        sim.offer(_invocation(0, 1.0))
        with pytest.raises(RuntimeError, match="still undecided"):
            sim.offer(_invocation(1, 2.0))

    def test_run_and_run_stream_take_any_iterable(self):
        from repro.schedulers.greedy import GreedyMatchScheduler

        arrivals = [_invocation(i, t) for i, t in
                    enumerate([0.0, 0.0, 0.2, 3.0, 3.0, 9.5])]
        summaries = [
            getattr(
                ClusterSimulator(SimulationConfig(pool_capacity_mb=300.0)),
                method,
            )(source, GreedyMatchScheduler()).summary()
            for method in ("run", "run_stream")
            for source in (arrivals, iter(arrivals))
        ]
        assert all(s == summaries[0] for s in summaries)
        assert summaries[0]["invocations"] == len(arrivals)
