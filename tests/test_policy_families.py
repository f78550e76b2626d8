"""Property and metamorphic wall for the proactive policy families.

Four Hypothesis property suites:

* **pre-warm budget** -- an :class:`MPCScheduler` decision never carries
  more than ``prewarm_budget`` pre-warm requests, whatever the horizon,
  smoothing factor or workload draw;
* **invariants under faults** -- MPC and lending runs with the full
  invariant harness attached (conservation, capacity, volume pairing)
  stay violation-free on a sharded, concurrency-limited, fault-injected
  cluster;
* **lending safety** -- lends at tight capacity never break the pool
  monitors, for arbitrary budgets and helping thresholds;
* **shard-order independence** -- :func:`fit_from_traces` produces a
  bit-identical Q table for any permutation of a fixed shard split.

Two metamorphic relations:

* **arrival-shift equivariance** -- shifting every observed arrival by a
  constant shifts every EWMA forecast by exactly that constant
  (integer-valued floats, so the arithmetic is exact);
* **lend-budget monotonicity** -- on empirically pinned cells, raising
  the lend budget never increases the cold-start count.  This is not a
  theorem (a lend perturbs later evictions, and HI-Sim seed 1 is a known
  counterexample), so the test pins cells where the relation holds and
  guards against silent policy regressions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultConfig
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.drl.offline import fit_from_traces, trace_lines_from_result
from repro.schedulers.base import LendRequest, PrewarmRequest
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.lending import PagurusLendingScheduler
from repro.schedulers.mpc import ArrivalForecaster, MPCScheduler
from repro.schedulers.offline import OfflineQScheduler
from repro.workloads.fstartbench import build_workload
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation, Workload


def small_workload(seed: int = 0, n: int = 40) -> Workload:
    """A fast n-invocation draw over four Table-II functions."""
    import numpy as np

    rng = np.random.default_rng(seed)
    specs = tuple(function_by_id(i) for i in (1, 3, 4, 6))
    invocations = [
        Invocation(
            invocation_id=i,
            spec=specs[int(rng.integers(len(specs)))],
            arrival_time=float(rng.uniform(0.0, 90.0)),
            execution_time_s=0.5,
        )
        for i in range(n)
    ]
    return Workload.from_invocations(f"families-{seed}", invocations)


def drive_actions(scheduler, workload, capacity_mb=1500.0):
    """Run the incremental API; the proactive actions of every decision
    the policy makes, in order."""
    eviction = (scheduler.make_eviction_policy()
                if hasattr(scheduler, "make_eviction_policy") else None)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity_mb), eviction
    )
    sim.load(workload)
    actions = []
    while (ctx := sim.next_decision_point()) is not None:
        decision = scheduler.decide(ctx.pool, ctx.invocation, ctx.cost_model)
        actions.append(decision[2])
        sim.apply_decision(decision)
    sim.finish(scheduler_name=scheduler.name)
    return actions


# ---------------------------------------------------------------------------
# Property: pre-warm requests per decision never exceed the budget
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(
    horizon_s=st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
    prewarm_budget=st.integers(min_value=0, max_value=5),
    alpha=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=7),
)
def test_prewarms_never_exceed_budget(horizon_s, prewarm_budget, alpha, seed):
    scheduler = MPCScheduler(
        horizon_s=horizon_s, prewarm_budget=prewarm_budget, alpha=alpha
    )
    scheduler.reset()
    for actions in drive_actions(scheduler, small_workload(seed=seed)):
        prewarms = [a for a in actions if isinstance(a, PrewarmRequest)]
        assert len(prewarms) == len(actions)  # MPC only pre-warms
        assert len(prewarms) <= prewarm_budget
        # Never pre-warm the function this very decision serves.
        if prewarm_budget:
            names = {a.function_name for a in prewarms}
            assert len(names) == len(prewarms)  # one per function


def test_budget_zero_decisions_carry_no_actions():
    scheduler = MPCScheduler(prewarm_budget=0)
    scheduler.reset()
    for actions in drive_actions(scheduler, small_workload()):
        assert actions == ()


# ---------------------------------------------------------------------------
# Property: invariant monitors stay clean under fault injection
# ---------------------------------------------------------------------------

_FAULTED = dict(
    faults=FaultConfig(crash_prob=0.1, straggler_prob=0.2, seed=3),
    per_worker_pools=True,
    worker_concurrency=2,
)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5),
    scheduler_cls=st.sampled_from(
        [MPCScheduler, PagurusLendingScheduler, OfflineQScheduler]
    ),
)
def test_faulted_runs_stay_invariant_clean(seed, scheduler_cls):
    """verify=True raises InvariantViolation on the first broken monitor
    checkpoint, so a completed run IS the property."""
    scheduler = scheduler_cls()
    scheduler.reset()
    if hasattr(scheduler, "observe_workload"):
        workload = small_workload(seed=seed)
        scheduler.observe_workload(workload)
    else:
        workload = small_workload(seed=seed)
    eviction = scheduler.make_eviction_policy()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=1200.0, verify=True, **_FAULTED),
        eviction,
    )
    result = sim.run(workload, scheduler)
    assert result.summary()["invocations"] == float(len(workload))


# ---------------------------------------------------------------------------
# Property: lending never violates capacity / pairing invariants
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    lend_budget=st.integers(min_value=0, max_value=64),
    help_threshold_s=st.floats(min_value=0.0, max_value=30.0,
                               allow_nan=False),
    seed=st.integers(min_value=0, max_value=5),
    capacity_mb=st.sampled_from([600.0, 900.0, 1500.0]),
)
def test_lending_respects_pool_invariants(
    lend_budget, help_threshold_s, seed, capacity_mb
):
    scheduler = PagurusLendingScheduler(
        lend_budget=lend_budget, help_threshold_s=help_threshold_s
    )
    scheduler.reset()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity_mb, verify=True),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(small_workload(seed=seed), scheduler)
    summary = result.summary()
    assert summary.get("lends_issued", 0.0) <= float(lend_budget)
    # Every decision's lend side is at most one request, toward the
    # arriving function itself.
    scheduler.reset()
    for actions in drive_actions(
        scheduler, small_workload(seed=seed), capacity_mb=capacity_mb
    ):
        assert len(actions) <= 1
        for action in actions:
            assert isinstance(action, LendRequest)


# ---------------------------------------------------------------------------
# Property: fit_from_traces is shard-order independent
# ---------------------------------------------------------------------------

def _reference_lines():
    """Greedy decision lines over a fixed workload (computed once)."""
    scheduler = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=float("inf")),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(build_workload("LO-Sim", seed=0), scheduler)
    return trace_lines_from_result(result)


_LINES = _reference_lines()


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fit_from_traces_shard_order_independent(data):
    n = len(_LINES)
    cuts = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=n - 1), min_size=0, max_size=4,
    )))
    bounds = [0] + cuts + [n]
    shards = [_LINES[a:b] for a, b in zip(bounds, bounds[1:])]
    permuted = data.draw(st.permutations(shards))
    base = fit_from_traces(shards)
    shuffled = fit_from_traces(permuted)
    assert base.states == shuffled.states
    assert base.q.tobytes() == shuffled.q.tobytes()
    assert base.n_transitions == shuffled.n_transitions


# ---------------------------------------------------------------------------
# Metamorphic: forecast arrival-shift equivariance
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    arrivals=st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=2, max_size=20,
    ).map(sorted),
    delta=st.integers(min_value=1, max_value=100_000),
    alpha=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_forecast_shift_equivariance(arrivals, delta, alpha):
    """Shifting every arrival by ``delta`` shifts the forecast by exactly
    ``delta``: gaps are differences, so the EWMA state is shift-free.
    Integer-valued floats keep every operation exact."""
    base = ArrivalForecaster(alpha=alpha)
    shifted = ArrivalForecaster(alpha=alpha)
    for t in arrivals:
        base.observe("fn", float(t))
        shifted.observe("fn", float(t + delta))
        predicted = base.predict_next("fn")
        moved = shifted.predict_next("fn")
        if predicted is None:
            assert moved is None
        else:
            assert moved == predicted + delta


def test_forecaster_needs_two_arrivals():
    forecaster = ArrivalForecaster()
    assert forecaster.predict_next("fn") is None
    forecaster.observe("fn", 1.0)
    assert forecaster.predict_next("fn") is None
    forecaster.observe("fn", 3.0)
    assert forecaster.predict_next("fn") == 5.0
    forecaster.reset()
    assert forecaster.predict_next("fn") is None


# ---------------------------------------------------------------------------
# Metamorphic: lend-budget monotonicity on pinned cells
# ---------------------------------------------------------------------------

#: Cells where "more budget => no more cold starts" holds empirically.
#: Not universal -- a lend perturbs later evictions, and e.g. HI-Sim
#: seed 1 at 1200 MB is a measured counterexample -- so the test pins
#: cells where it does hold to catch silent lending regressions.
_MONOTONE_CELLS = (
    ("LO-Sim", 0, 846.4),
    ("LO-Sim", 2, 800.0),
    ("Overall", 0, 1500.0),
    ("Peak", 0, 1500.0),
)


def _cold_starts(workload, budget, capacity_mb):
    scheduler = PagurusLendingScheduler(lend_budget=budget)
    scheduler.reset()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity_mb),
        scheduler.make_eviction_policy(),
    )
    return sim.run(workload, scheduler).summary()["cold_starts"]


def test_lend_budget_monotone_on_pinned_cells():
    for workload_name, seed, capacity_mb in _MONOTONE_CELLS:
        workload = build_workload(workload_name, seed=seed)
        colds = [_cold_starts(workload, budget, capacity_mb)
                 for budget in (0, 4, 16, 64)]
        for tighter, looser in zip(colds, colds[1:]):
            assert looser <= tighter, (
                f"{workload_name}/seed{seed}: budget increase raised cold "
                f"starts {colds}"
            )
