"""Completion tie order of both engines on tie-heavy workloads.

Each invocation queues one completion, due when its startup and execution
are both done, and same-time completions pop in the order their startups
finished.  That order must equal the one a two-event model gives, in
which startup and execution completions are separate events on one heap
ordered ``(time, priority, seq)`` with arrivals at priority 0.

Arrival times, startup latencies and execution times here are small
integers, so exact ties -- between completions, and between a completion
and an arrival -- are common.  FStartBench draws rarely tie exactly, so
the golden traces alone would not notice a wrong tie key.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.lanes import (
    SCHEDULER_CLASS_NAMES,
    ArrivalTable,
    LaneKernel,
    LaneSpec,
    _Lane,
)
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.containers.costmodel import StartupBreakdown, StartupCostModel
from repro.experiments.parallel import build_scheduler
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation, Workload

#: Keys whose decisions carry no proactive actions.  A pre-warm also pools
#: through keep-alive, so only for these is each keep-alive a completion.
REACTIVE_KEYS = sorted(set(SCHEDULER_CLASS_NAMES) - {"lending", "mpc"})
CAPACITIES = [0.0, 300.0, 800.0, float("inf")]

_items = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 4, 5, 6, 10, 11]),  # FStartBench function
        st.integers(min_value=0, max_value=8),     # arrival time
        st.integers(min_value=1, max_value=3),     # execution time
    ),
    min_size=1,
    max_size=30,
)
#: Startup seconds per Table-I match level (cold, L1, L2, L3).
_level_s = st.lists(st.integers(min_value=0, max_value=2), min_size=4,
                    max_size=4)


class WholeSecondCostModel(StartupCostModel):
    """Prices a start at a whole number of seconds per match level."""

    def __init__(self, level_s):
        super().__init__()
        self.level_s = level_s

    def _price(self, image, match, function_init_s):
        return StartupBreakdown(create_s=float(self.level_s[int(match)]))


class RecordingLane(_Lane):
    """A lane that logs ``(time, container id)`` per keep-alive."""

    __slots__ = ("done",)

    def keep_alive(self, container, now):
        self.done.append((now, container.container_id))
        super().keep_alive(container, now)


def make_workload(items):
    ordered = sorted(items, key=lambda item: item[1])
    return Workload.from_invocations("ties", [
        Invocation(invocation_id=i, spec=function_by_id(fid),
                   arrival_time=float(t), execution_time_s=float(e))
        for i, (fid, t, e) in enumerate(ordered)
    ])


def two_event_order(rows):
    """``(finish time, index)`` per row in execution-complete order.

    ``rows`` is ``(arrival, startup_s, exec_s)`` per invocation in arrival
    order.  Arrivals are queued first (priority 0); each arrival queues
    its startup completion and each startup its execution completion,
    both at priority 1, numbered as they are queued.
    """
    heap, seq, done = [], itertools.count(), []
    for i, (arrival, _, _) in enumerate(rows):
        heapq.heappush(heap, (arrival, 0, next(seq), "arrival", i))
    while heap:
        t, _, _, kind, i = heapq.heappop(heap)
        if kind == "arrival":
            heapq.heappush(heap, (t + rows[i][1], 1, next(seq), "startup", i))
        elif kind == "startup":
            heapq.heappush(heap, (t + rows[i][2], 1, next(seq), "exec", i))
        else:
            done.append((t, i))
    return done


def run_sequential(key, workload, capacity, cost_model):
    scheduler = build_scheduler(key)
    if hasattr(scheduler, "observe_workload"):
        scheduler.observe_workload(workload)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity, cost_model=cost_model),
        scheduler.make_eviction_policy(),
    )
    done = []
    keep_alive = sim.lifecycle.keep_alive

    def record(container, now):
        done.append((now, container.container_id))
        keep_alive(container, now)

    sim.lifecycle.keep_alive = record
    return sim.run(workload, scheduler), done


@settings(max_examples=150, deadline=None)
@given(items=_items, level_s=_level_s, key=st.sampled_from(REACTIVE_KEYS),
       capacity=st.sampled_from(CAPACITIES))
def test_both_engines_complete_in_two_event_order(items, level_s, key,
                                                  capacity):
    workload = make_workload(items)
    cost_model = WholeSecondCostModel(level_s)
    result, sequential = run_sequential(key, workload, capacity, cost_model)
    records = result.telemetry.records
    expected = [
        (t, records[i].container_id)
        for t, i in two_event_order([
            (r.arrival_time, r.startup_latency_s, r.execution_time_s)
            for r in records
        ])
    ]
    assert sequential == expected

    lane = RecordingLane(LaneSpec(
        scheduler=key, table=ArrivalTable(workload, cost_model),
        capacity_mb=capacity,
    ))
    lane.done = []
    lane.replay(lane.table)
    lane.drain_all()
    assert lane.done == expected


@settings(max_examples=150, deadline=None)
@given(items=_items, level_s=_level_s,
       key=st.sampled_from(sorted(SCHEDULER_CLASS_NAMES)),
       capacity=st.sampled_from(CAPACITIES))
def test_lane_summary_equals_sequential_under_ties(items, level_s, key,
                                                   capacity):
    workload = make_workload(items)
    cost_model = WholeSecondCostModel(level_s)
    result, _ = run_sequential(key, workload, capacity, cost_model)
    [lane] = LaneKernel([LaneSpec(
        scheduler=key, table=ArrivalTable(workload, cost_model),
        capacity_mb=capacity,
    )]).run()
    assert lane.summary == result.summary()
