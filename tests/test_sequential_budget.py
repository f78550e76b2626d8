"""Per-invocation cost guards of the sequential engine.

* **No reference cycles.**  A finished :class:`ClusterSimulator` and a
  finished lane are freed by reference counting alone, with the cyclic
  garbage collector off: the event loop holds no reference back to the
  lifecycle that owns it (the lifecycle passes its TTL sweep per call).
* **Call budgets.**  The Python-level function calls the sequential engine
  makes per invocation on one fixed grid cell stay under a ceiling, both
  through ``run`` with exact telemetry and through ``run_stream`` with
  bounded telemetry (the path of a streaming replay's reference leg and
  of the serving engine's decisions), so a change that adds a hop to
  either per-invocation path shows up here.
* **Lookahead's decision budget.**  The calls one Lookahead decision
  makes stay under a ceiling, so a change that re-prices savings per
  decision shows up here.
"""

from __future__ import annotations

import gc
import sys
import weakref

from repro.cluster.lanes import ArrivalTable, LaneKernel, LaneSpec
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.common import pool_sizes
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.keepalive import KeepAliveScheduler
from repro.schedulers.lookahead import LookaheadScheduler
from repro.workloads.fstartbench import build_workload

#: Python ``call`` events per invocation of ``ClusterSimulator.run`` on
#: the budget cell (Greedy-Match, Overall at seed 0, 1500 MB): 29.9 with
#: the eviction policy consulted only for a newcomer that does not fit,
#: one row append per invocation, the warm match level derived once and
#: no admission call without a concurrency limit (Python 3.11).  It was
#: 37.9 before those cuts and 56.9 before the first round of them.  The
#: ceiling leaves about 3 % of headroom.
CALL_BUDGET = 30.7

#: The same count for ``ClusterSimulator.run_stream`` over the budget
#: cell's arrivals with ``bounded_telemetry=True``: 30.9 (Python 3.11),
#: one more than ``run`` for the latency sketch's ``insert``; it was
#: 40.9 before the cuts above.  About 3 % of headroom.
STREAM_CALL_BUDGET = 31.8

#: Python ``call`` events per ``LookaheadScheduler.decide`` call on
#: the Lookahead budget cell (Overall at seed 0, Tight capacity), the
#: decision's own call included: 9.7 with savings memoized per run and
#: one scan entry per distinct image (Python 3.11); it was 62.6 when
#: every decision re-priced every saving.  About 3 % of headroom.
LOOKAHEAD_CALL_BUDGET = 10.0


def test_finished_engines_are_freed_without_the_cyclic_gc():
    workload = build_workload("LO-Sim", seed=0)
    table = ArrivalTable(workload)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        scheduler = KeepAliveScheduler()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2000.0),
            scheduler.make_eviction_policy(),
        )
        sim.run(workload, scheduler)
        lifecycle = weakref.ref(sim.lifecycle)
        kernel = LaneKernel([LaneSpec("keepalive", table, 2000.0)])
        kernel.run()
        # A lane is slotted without a weakref slot; its loop is owned by
        # the lane alone, so it dies exactly when the lane does.
        lane_loop = weakref.ref(kernel.lanes[0].loop)
        del sim, kernel
        assert lifecycle() is None
        assert lane_loop() is None
    finally:
        if was_enabled:
            gc.enable()


def _calls_per_invocation(bounded: bool) -> float:
    """Python calls per invocation of the budget cell: ``run`` over the
    workload, or ``run_stream`` over its arrivals with bounded
    telemetry."""
    workload = build_workload("Overall", seed=0)
    scheduler = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=1500.0,
                         bounded_telemetry=bounded),
        scheduler.make_eviction_policy(),
    )
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        if bounded:
            result = sim.run_stream(iter(workload.invocations), scheduler)
        else:
            result = sim.run(workload, scheduler)
    finally:
        sys.setprofile(None)
    n = len(workload)
    assert result.summary()["invocations"] == n
    return calls / n


def test_sequential_calls_per_invocation_stay_under_budget():
    per_invocation = _calls_per_invocation(bounded=False)
    assert per_invocation <= CALL_BUDGET, (
        f"{per_invocation:.2f} calls per invocation (budget {CALL_BUDGET})"
    )


def test_bounded_stream_calls_per_invocation_stay_under_budget():
    per_invocation = _calls_per_invocation(bounded=True)
    assert per_invocation <= STREAM_CALL_BUDGET, (
        f"{per_invocation:.2f} calls per invocation "
        f"(budget {STREAM_CALL_BUDGET})"
    )


def test_lookahead_calls_per_decision_stay_under_budget():
    workload = build_workload("Overall", seed=0)
    scheduler = LookaheadScheduler()
    scheduler.observe_workload(workload)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=pool_sizes(workload)["Tight"]),
        scheduler.make_eviction_policy(),
    )
    calls = decisions = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    rule = scheduler.decide

    def counted(pool, invocation, cost_model):
        nonlocal decisions
        decisions += 1
        sys.setprofile(count)
        try:
            return rule(pool, invocation, cost_model)
        finally:
            sys.setprofile(None)

    scheduler.decide = counted
    result = sim.run(workload, scheduler)
    assert decisions == result.summary()["invocations"] == len(workload)
    assert calls / decisions <= LOOKAHEAD_CALL_BUDGET, (
        f"{calls / decisions:.2f} calls per decision "
        f"(budget {LOOKAHEAD_CALL_BUDGET})"
    )
