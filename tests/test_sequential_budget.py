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
* **Serve budget.**  The calls one request makes through
  :class:`~repro.serve.engine.ServeEngine` -- its ``submit``, its share
  of the janitor's ``pump`` ticks and of the final ``drain`` -- stay
  under a ceiling on a 4-worker x 16-slot cluster with admission
  control and bounded telemetry, so a change that adds a hop to a
  served decision shows up here.
* **Lookahead's decision budget.**  The calls one Lookahead decision
  makes stay under a ceiling, so a change that re-prices savings per
  decision shows up here.
"""

from __future__ import annotations

import gc
import random
import sys
import weakref

from repro.cluster.eventloop import VirtualClock
from repro.cluster.lanes import ArrivalTable, LaneKernel, LaneSpec
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.common import pool_sizes
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.keepalive import KeepAliveScheduler
from repro.schedulers.lookahead import LookaheadScheduler
from repro.serve.engine import ServeEngine
from repro.workloads.fstartbench import build_workload
from repro.workloads.functions import fstartbench_functions

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

#: Python ``call`` events per ``ServeEngine.submit`` on the serve budget
#: session (Greedy-Match, 4 workers x 16 slots, bounded telemetry, 1000
#: seeded requests at 200/s, janitor pumps and the drain included):
#: 55.0 with one-pass worker selection, the queue depth read from the
#: admitted worker only, records and outcomes built as named tuples in
#: one C call and function lookup by dict (Python 3.11); it was 65.8
#: before those cuts.  About 3 % of headroom.
SERVE_CALL_BUDGET = 56.7

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


#: Serve budget session: request rate (per second of virtual time),
#: request count, janitor interval and keep-alive TTL (seconds).
SERVE_RATE = 200.0
SERVE_REQUESTS = 1000
SERVE_PUMP_S = 0.05
SERVE_TTL_S = 2.0


def _serve_calls_per_submit() -> float:
    """Python calls per request of the serve budget session: a seeded
    Poisson schedule over the 13 Table-II functions (popularity falling
    with rank), janitor pumps every :data:`SERVE_PUMP_S` of virtual time
    and the final drain, divided by the number of submits."""
    specs = fstartbench_functions()
    rng = random.Random(3)
    names = [spec.name for spec in specs]
    weights = [1.0 / (rank + 1) ** 1.5 for rank in range(len(names))]
    schedule = []
    t = 0.0
    for _ in range(SERVE_REQUESTS):
        t += rng.expovariate(SERVE_RATE)
        schedule.append((t, rng.choices(names, weights)[0]))
    config = SimulationConfig(
        pool_capacity_mb=sum(spec.image.memory_mb for spec in specs),
        n_workers=4,
        worker_concurrency=16,
        bounded_telemetry=True,
    )
    clock = VirtualClock()
    engine = ServeEngine(config, "greedy", wall=clock,
                         keepalive_ttl_s=SERVE_TTL_S)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    next_pump = SERVE_PUMP_S
    sys.setprofile(count)
    try:
        for offset, function in schedule:
            while next_pump <= offset:
                clock.advance_to(next_pump)
                engine.pump()
                next_pump += SERVE_PUMP_S
            clock.advance_to(offset)
            engine.submit(function)
        summary = engine.drain().summary()
    finally:
        sys.setprofile(None)
    assert summary["invocations"] == engine.submitted == SERVE_REQUESTS
    assert summary["max_queue_depth"] >= 1
    return calls / engine.submitted


def test_serve_calls_per_submit_stay_under_budget():
    per_submit = _serve_calls_per_submit()
    assert per_submit <= SERVE_CALL_BUDGET, (
        f"{per_submit:.2f} calls per submit (budget {SERVE_CALL_BUDGET})"
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
