"""Both engines against an independent exact reference.

``tests/exact_reference.py`` models the platform from the paper's
description alone.  Here hypothesis draws integer-timed workloads with
many ties -- between arrivals, between completions, between a completion
and an arrival, and at exactly the TTL -- and for ``lru``, ``keepalive``
and ``coldonly`` every invocation's cold flag, container id and startup
latency must equal the reference's, on the sequential engine and on a
lane.  Times are whole multiples of 100 s, so KeepAlive's 600 s TTL is
six steps and every sum is exact.
"""

import ast
import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

import exact_reference
from exact_reference import POLICIES, Reference
from repro.cluster.lanes import ArrivalTable, LaneSpec, _Lane
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.containers.costmodel import StartupBreakdown, StartupCostModel
from repro.experiments.parallel import build_scheduler
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation, Workload

STEP_S = 100.0
#: FStartBench functions; 2/11, 5/10 and 1/12 are exact matches of each
#: other, so reuse crosses function boundaries.
FUNCTION_IDS = [1, 2, 4, 5, 10, 11, 12]
CAPACITIES = [0.0, 150.0, 300.0, float("inf")]

_items = st.lists(
    st.tuples(
        st.sampled_from(FUNCTION_IDS),
        st.integers(min_value=0, max_value=20),    # arrival step
        st.integers(min_value=1, max_value=3),     # execution steps
    ),
    min_size=1,
    max_size=30,
)
#: Startup steps per Table-I match level (cold, L1, L2, L3).
_level_steps = st.lists(st.integers(min_value=0, max_value=2), min_size=4,
                        max_size=4)


class StepCostModel(StartupCostModel):
    """Prices a start at a whole number of steps per match level."""

    def __init__(self, level_steps):
        super().__init__()
        self.level_steps = level_steps

    def _price(self, image, match, function_init_s):
        return StartupBreakdown(
            create_s=STEP_S * self.level_steps[int(match)]
        )


class TracingLane(_Lane):
    """A lane that logs ``(cold, container id)`` per start."""

    __slots__ = ("starts",)

    def start(self, spec, picked, preserve, now):
        started = super().start(spec, picked, preserve, now)
        self.starts.append((picked is None, started[0].container_id))
        return started


def make_workload(items):
    ordered = sorted(items, key=lambda item: item[1])
    return Workload.from_invocations("steps", [
        Invocation(invocation_id=i, spec=function_by_id(fid),
                   arrival_time=STEP_S * t, execution_time_s=STEP_S * e)
        for i, (fid, t, e) in enumerate(ordered)
    ])


def reference_run(key, workload, capacity, cost_model):
    def price(image, level):
        return cost_model.breakdown(image, level, 0.0).total_s

    return Reference(POLICIES[key], capacity, price).run(list(workload))


def sequential_run(key, workload, capacity, cost_model):
    scheduler = build_scheduler(key)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity, cost_model=cost_model,
                         n_workers=1),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(workload, scheduler)
    outcomes = [
        (r.cold_start, r.container_id, r.startup_latency_s)
        for r in result.telemetry.records
    ]
    return outcomes, result.summary()


def lane_run(key, workload, capacity, cost_model):
    lane = TracingLane(LaneSpec(
        scheduler=key, table=ArrivalTable(workload, cost_model),
        capacity_mb=capacity,
    ))
    lane.starts = []
    lane.replay(lane.table)
    lane.drain_all()
    outcomes = [
        (cold, cid, latency)
        for (cold, cid), latency in zip(lane.starts, lane.latencies)
    ]
    return outcomes, lane.summary()


@settings(max_examples=200, deadline=None)
@given(items=_items, level_steps=_level_steps,
       key=st.sampled_from(sorted(POLICIES)),
       capacity=st.sampled_from(CAPACITIES))
def test_engines_equal_exact_reference(items, level_steps, key, capacity):
    workload = make_workload(items)
    cost_model = StepCostModel(level_steps)
    ref = reference_run(key, workload, capacity, cost_model)
    counts = {
        "evictions": float(ref.evictions),
        "keep_alive_rejections": float(ref.rejections),
        "ttl_expirations": float(ref.expirations),
    }
    for engine in (sequential_run, lane_run):
        outcomes, summary = engine(key, workload, capacity, cost_model)
        assert outcomes == ref.outcomes, engine.__name__
        assert {k: summary[k] for k in counts} == counts, engine.__name__


def test_reference_stays_independent_of_the_engines():
    """The reference imports neither engine nor any policy."""
    tree = ast.parse(inspect.getsource(exact_reference))
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [
        name for name in imported
        if name.startswith(("repro.cluster", "repro.schedulers"))
    ]
