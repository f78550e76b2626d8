"""Lane-kernel parity: batched lanes must be byte-identical to sequential.

Pinned properties:

* Every lane summary equals the sequential ``ClusterSimulator.run``
  summary (through ``evaluate_scheduler``) for the same ``(scheduler,
  workload, seed, capacity)`` cell -- exact ``==`` on
  every float, not approx (property-based over the full scheduler
  registry, arbitrary seeds, capacities including the 0/inf edges, and
  arbitrary lane counts).
* Every registry class writes its rule in ``decide``, and both engines
  dispatch through that one attribute: a wrapper patched onto it sees
  every arrival of a lane and of ``ClusterSimulator.run``.
* Proactive decision actions (MPC's ``PrewarmRequest``, Pagurus's
  ``LendRequest``) replay inside the lane lifecycle: the pre-warm /
  lending telemetry blocks match the sequential driver exactly.
* ``run_grid(lanes=L)`` reproduces the sequential simulator cell-for-cell
  for any ``L`` (``L=1`` included) over any registry schedulers, under
  process fan-out too; unknown scheduler keys raise ``KeyError``.
* ``ArrivalTable`` is a faithful columnar lowering of the workload it was
  built from; ``ArrivalTable.from_stream`` chunks reassemble to the same
  columns for any chunk size (1, ragged, larger than the stream).
* ``run_stream_lanes`` is byte-identical to ``ClusterSimulator.run_stream``
  with bounded telemetry, per cell, for every registry scheduler and any
  chunk size; so is the stream experiment for any lane count.
* The per-process arrival-table memo is a bounded LRU: it cannot grow
  past its cap however many draws a grid touches.
* Lanes run the shared pool lifecycle, not a copy of it: after the final
  drain a lane's live memory equals its pool's, and only pooled
  containers can still await a pre-warm claim or a lend target.  A lane
  rejects an invalid warm pick of any rule with the sequential engine's
  ``InvalidDecisionError``.
"""

from __future__ import annotations

import ast
import gc
import inspect
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.lanes import (
    SCHEDULER_CLASS_NAMES,
    ArrivalTable,
    LaneKernel,
    LaneSpec,
    _Lane,
    run_stream_lanes,
)
from repro.cluster.lifecycle import InvalidDecisionError
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.containers.container import Container
from repro.containers.matching import MatchLevel, match_level
from repro.experiments import parallel
from repro.experiments.common import evaluate_scheduler
from repro.experiments.parallel import (
    _ARRIVAL_TABLE_CACHE,
    SCHEDULER_FACTORIES,
    GridCell,
    GridTask,
    build_scheduler,
    cached_arrival_table,
    cached_workload,
    run_grid,
)
from repro.schedulers.base import COLD, Scheduler

LANE_KEYS = sorted(SCHEDULER_CLASS_NAMES)
#: Keys whose rule does more than pick from the pool: it issues pre-warm
#: or lend actions, or scores picks against the upcoming arrivals.  Their
#: parity property keeps an example budget of its own, so the plain pool
#: rules cannot crowd them out.
SCRIPTED_KEYS = ["lending", "lookahead", "mpc"]
CLOSED_FORM_KEYS = sorted(set(LANE_KEYS) - set(SCRIPTED_KEYS))
WORKLOADS = ("LO-Sim", "HI-Var")
CAPACITIES = (0.0, 300.0, 800.0, 4000.0, float("inf"))


def make_task(scheduler="lru", workload="LO-Sim", seed=0, capacity=800.0):
    return GridTask(scheduler=scheduler, workload=workload, seed=seed,
                    pool_label="Lane", capacity_mb=float(capacity))


def sequential_cell(task):
    """The reference side: one ``ClusterSimulator.run`` of the cell."""
    outcome = evaluate_scheduler(
        build_scheduler(task.scheduler),
        cached_workload(task.workload, task.seed),
        task.capacity_mb,
    )
    return GridCell(task=task, method=outcome.method,
                    summary=outcome.result.telemetry.summary())


#: ``(n_functions, n_invocations)`` of the Azure-like test stream.
STREAM_SHAPE = (30, 400)


def azure_stream(seed):
    """A fresh Azure-like test stream and its derived pool capacity."""
    from repro.experiments.ext_stream_replay import (
        derive_capacity_mb, trace_config,
    )
    from repro.workloads.azure import AzureTraceGenerator

    generator = AzureTraceGenerator(trace_config(*STREAM_SHAPE))
    stream = generator.stream(seed=seed)
    return stream, derive_capacity_mb(stream)


def run_stream_reference(scheduler, seed):
    """The reference side of a stream cell: ``ClusterSimulator.run_stream``
    with bounded telemetry; returns ``(method, summary)``."""
    stream, capacity = azure_stream(seed)
    driver = build_scheduler(scheduler)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity, bounded_telemetry=True),
        driver.make_eviction_policy()
        if hasattr(driver, "make_eviction_policy") else None,
    )
    result = sim.run_stream(stream, driver)
    return result.scheduler_name, result.summary()


def assert_conserved(lane):
    """End-of-run pool conservation: once every completion has drained,
    each live container is pooled, and only pooled containers can still
    be awaiting a pre-warm claim or a lend target."""
    pooled = {c.container_id for c in lane.pool}
    assert math.isclose(lane.live_memory_mb, lane.pool.used_mb,
                        rel_tol=1e-9, abs_tol=1e-9)
    assert lane._prewarmed <= pooled
    assert set(lane._lent) <= pooled


def declared_counters(module, names):
    """``(class, name)`` for each of ``names`` a class of ``module``
    declares: in its body (``__slots__`` or a class-level value) or as an
    attribute assigned in its ``__init__``."""
    found = []
    tree = ast.parse(inspect.getsource(module))
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__slots__":
                        found += [(cls.name, slot)
                                  for slot in ast.literal_eval(node.value)
                                  if slot in names]
                    elif target.id in names:
                        found.append((cls.name, target.id))
            elif (isinstance(node, ast.FunctionDef)
                  and node.name == "__init__"):
                found += [
                    (cls.name, target.attr)
                    for stmt in ast.walk(node)
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Attribute)
                    and target.attr in names
                ]
    return found


def lane_summary(task):
    """Run one cell on a single-lane kernel and return its summary,
    checking the lane's end-of-run conservation."""
    table = cached_arrival_table(task.workload, task.seed)
    spec = LaneSpec(scheduler=task.scheduler, table=table,
                    capacity_mb=task.capacity_mb)
    kernel = LaneKernel([spec])
    [result] = kernel.run()
    assert_conserved(kernel.lanes[0])
    return result


class TestRegistry:
    def test_every_registry_key_lane_supported(self):
        """The whole scheduler registry runs in lanes, which call each
        key's ``decide`` rule: every registry class has one of its own."""
        assert set(SCHEDULER_CLASS_NAMES) == set(SCHEDULER_FACTORIES)
        for key in SCHEDULER_CLASS_NAMES:
            cls = type(build_scheduler(key))
            assert cls.decide is not Scheduler.decide, key

    def test_both_engines_dispatch_through_decide(self, monkeypatch):
        """A counting wrapper patched onto a registry class's ``decide``
        sees one call per arrival, in arrival order, on a lane and on
        ``ClusterSimulator.run``: no engine reaches the rule another
        way."""
        from repro.schedulers.greedy import GreedyMatchScheduler

        seen = []
        rule = GreedyMatchScheduler.decide

        def counted(self, pool, invocation, cost_model):
            seen.append(invocation.invocation_id)
            return rule(self, pool, invocation, cost_model)

        monkeypatch.setattr(GreedyMatchScheduler, "decide", counted)
        task = make_task("greedy", "LO-Sim", seed=0, capacity=800.0)
        arrivals = [
            inv.invocation_id
            for inv in cached_workload(task.workload, task.seed).invocations
        ]
        lane_summary(task)
        assert seen == arrivals
        seen.clear()
        sequential_cell(task)
        assert seen == arrivals

    def test_pool_bookkeeping_written_once(self):
        """Lanes run the shared pool lifecycle rather than a copy -- its
        start, completion queue and complete included -- and never set a
        container's state fields themselves; the scalar counters are
        declared only by ``Counters.__init__``.  A lane's completions
        live on its lifecycle loop's heap, not on one of its own."""
        from repro.cluster import lanes, lifecycle, telemetry
        from repro.cluster.telemetry import Counters

        own = set(vars(_Lane))
        assert not own & {
            "create", "claim", "repack", "keep_alive", "expire_ttl",
            "destroy", "prewarm", "lend", "start", "complete",
            "drain_until", "drain_all",
        }
        assert issubclass(_Lane, lifecycle.PoolLifecycle)
        assert not {"heap", "seq"} & set(_Lane.__slots__)
        assigned = [
            target.attr
            for node in ast.walk(ast.parse(inspect.getsource(lanes)))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            if isinstance(target, ast.Attribute)
        ]
        assert not set(assigned) & {
            "state", "current_function", "last_used_at"
        }
        names = set(vars(Counters()))
        assert len(names) == 14
        declared = [
            found
            for module in (lanes, lifecycle, telemetry)
            for found in declared_counters(module, names)
        ]
        assert sorted(declared) == sorted(
            ("Counters", name) for name in names
        )


class TestArrivalTable:
    def test_columnar_lowering_matches_workload(self):
        """The table replays the workload's own invocation objects, in
        the workload's arrival order."""
        workload = cached_workload("LO-Sim", 0)
        table = ArrivalTable(workload)
        assert table.n == len(workload)
        assert len(table.invocations) == len(workload.invocations)
        assert all(
            mine is theirs
            for mine, theirs in zip(table.invocations, workload.invocations)
        )
        assert table.workload is workload

    def test_cache_returns_same_object(self):
        assert cached_arrival_table("LO-Sim", 0) is cached_arrival_table(
            "LO-Sim", 0)

    @pytest.mark.parametrize("chunk_size", (1, 3, 64, 10_000_000))
    def test_from_stream_chunks_reassemble(self, chunk_size):
        """Chunk invocation lists concatenate to the whole table's for any
        chunk size -- one arrival per chunk, ragged tails, or a single
        chunk larger than the whole stream."""
        workload = cached_workload("LO-Sim", 0)
        whole = ArrivalTable(workload)
        chunks = list(ArrivalTable.from_stream(
            workload.invocations, chunk_size=chunk_size,
        ))
        assert sum(c.n for c in chunks) == whole.n
        for c in chunks[:-1]:
            assert c.n == chunk_size
        assert all(c.n == len(c.invocations) for c in chunks)
        joined = [inv for c in chunks for inv in c.invocations]
        assert len(joined) == len(whole.invocations)
        assert all(a is b for a, b in zip(joined, whole.invocations))
        # Chunks share one cost model, whose memo keeps priced starts
        # across chunk boundaries.
        assert all(c.cost_model is chunks[0].cost_model for c in chunks)
        # Stream chunks have no materialized workload to observe.
        assert all(c.workload is None for c in chunks)

    def test_from_stream_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(ArrivalTable.from_stream([], chunk_size=0))

    def test_from_stream_empty(self):
        assert list(ArrivalTable.from_stream([], chunk_size=4)) == []


class TestArrivalTableCacheBound:
    def test_memo_is_bounded_lru(self, monkeypatch):
        """The per-process table memo cannot grow unboundedly across a
        large grid: inserts beyond the cap evict the LRU entry, hits
        refresh recency."""
        monkeypatch.setattr(parallel, "ARRIVAL_TABLE_CACHE_CAP", 2)
        _ARRIVAL_TABLE_CACHE.clear()
        a = cached_arrival_table("LO-Sim", 0)
        cached_arrival_table("LO-Sim", 1)
        assert len(_ARRIVAL_TABLE_CACHE) == 2
        # Touch the LRU entry, then insert: the *other* entry is evicted.
        assert cached_arrival_table("LO-Sim", 0) is a
        cached_arrival_table("HI-Var", 0)
        assert len(_ARRIVAL_TABLE_CACHE) == 2
        assert ("LO-Sim", 0) in _ARRIVAL_TABLE_CACHE
        assert ("LO-Sim", 1) not in _ARRIVAL_TABLE_CACHE
        # A stream of fresh draws never pushes the memo past its cap.
        for seed in range(6):
            cached_arrival_table("HI-Var", seed)
            assert len(_ARRIVAL_TABLE_CACHE) <= 2

    def test_default_cap(self):
        assert parallel.ARRIVAL_TABLE_CACHE_CAP == 8
        _ARRIVAL_TABLE_CACHE.clear()
        for seed in range(10):
            cached_arrival_table("LO-Sim", seed)
        assert len(_ARRIVAL_TABLE_CACHE) == 8

    def test_cap_bounds_workloads_and_bootstrap_fits(self):
        """Evicting a draw's table frees its workload and, with it, the
        Offline-Q bootstrap fit memoized for that workload."""
        from repro.schedulers.offline import bootstrap_policy

        _ARRIVAL_TABLE_CACHE.clear()
        workloads, fits = [], []
        for seed in range(10):
            workload = cached_arrival_table("LO-Sim", seed).workload
            assert cached_workload("LO-Sim", seed) is workload
            workloads.append(weakref.ref(workload))
            fits.append(weakref.ref(bootstrap_policy(workload)))
        del workload
        gc.collect()
        assert sum(ref() is not None for ref in workloads) <= 8
        assert sum(ref() is not None for ref in fits) <= 8
        # The two oldest draws are the ones gone.
        assert workloads[0]() is None and workloads[1]() is None


class TestLaneParity:
    @pytest.mark.parametrize("scheduler", LANE_KEYS)
    def test_single_lane_matches_sequential(self, scheduler):
        task = make_task(scheduler)
        sequential = sequential_cell(task)
        result = lane_summary(task)
        assert result.method == sequential.method
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_capacity_edges(self, capacity):
        task = make_task("lru", capacity=capacity)
        assert lane_summary(task).summary == sequential_cell(task).summary

    def test_prewarm_actions_replayed(self):
        """MPC's PrewarmRequest actions run inside the lane lifecycle:
        the pre-warm telemetry block must match exactly, not just the
        14 base keys."""
        task = make_task("mpc", workload="HI-Var")
        sequential = sequential_cell(task)
        result = lane_summary(task)
        assert sequential.summary.get("prewarms_issued", 0.0) > 0
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    def test_lend_actions_replayed(self):
        """Pagurus's LendRequest actions run inside the lane lifecycle:
        the lending telemetry block must match exactly."""
        task = make_task("lending", workload="HI-Var", capacity=4000.0)
        sequential = sequential_cell(task)
        result = lane_summary(task)
        assert sequential.summary.get("lends_issued", 0.0) > 0
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    @settings(max_examples=10, deadline=None)
    @given(
        scheduler=st.sampled_from(CLOSED_FORM_KEYS),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        capacity=st.sampled_from(CAPACITIES),
    )
    def test_closed_form_parity_property(
        self, scheduler, workload, seed, capacity
    ):
        task = make_task(scheduler, workload, seed, capacity)
        sequential = sequential_cell(task)
        result = lane_summary(task)
        assert result.method == sequential.method
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    @settings(max_examples=8, deadline=None)
    @given(
        scheduler=st.sampled_from(SCRIPTED_KEYS),
        workload=st.sampled_from(WORKLOADS),
        seed=st.integers(min_value=0, max_value=3),
        capacity=st.sampled_from(CAPACITIES),
    )
    def test_scripted_parity_property(
        self, scheduler, workload, seed, capacity
    ):
        task = make_task(scheduler, workload, seed, capacity)
        sequential = sequential_cell(task)
        result = lane_summary(task)
        assert result.method == sequential.method
        assert list(result.summary.items()) == list(
            sequential.summary.items())

    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(LANE_KEYS),
                st.sampled_from(WORKLOADS),
                st.integers(min_value=0, max_value=3),
                st.sampled_from(CAPACITIES),
            ),
            min_size=1, max_size=6,
        ),
        lanes=st.integers(min_value=1, max_value=8),
    )
    def test_grid_parity_property(self, cells, lanes):
        tasks = [make_task(*cell) for cell in cells]
        sequential = [sequential_cell(task) for task in tasks]
        laned = run_grid(tasks, jobs=1, lanes=lanes)
        assert [c.task for c in laned] == [c.task for c in sequential]
        for a, b in zip(laned, sequential):
            assert a.method == b.method
            assert list(a.summary.items()) == list(b.summary.items())


class TestStreamLanes:
    @pytest.mark.parametrize("scheduler", LANE_KEYS)
    def test_stream_lane_matches_run_stream(self, scheduler):
        """One bounded lane per scheduler, byte-identical to the
        sequential ``run_stream`` cell (BoundedTelemetry folding)."""
        method, summary = run_stream_reference(scheduler, seed=0)
        stream, capacity = azure_stream(seed=0)
        [result] = run_stream_lanes([(scheduler, capacity)], stream)
        assert result.method == method
        assert list(result.summary.items()) == list(summary.items())

    @settings(max_examples=6, deadline=None)
    @given(
        schedulers=st.lists(
            st.sampled_from(LANE_KEYS), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2),
        chunk_size=st.sampled_from((1, 7, 64, 4096, 10_000_000)),
    )
    def test_stream_lane_parity_property(self, schedulers, seed, chunk_size):
        """Many lanes sharing one stream, arbitrary chunk sizes (one
        arrival per chunk through larger-than-stream), exact parity."""
        cells = [run_stream_reference(s, seed) for s in schedulers]
        stream, capacity = azure_stream(seed)
        results = run_stream_lanes(
            [(s, capacity) for s in schedulers], stream,
            chunk_size=chunk_size,
        )
        for (method, summary), result in zip(cells, results):
            assert result.method == method
            assert list(result.summary.items()) == list(summary.items())

    def test_stream_lanes_rejects_unknown_scheduler(self):
        stream, capacity = azure_stream(seed=0)
        with pytest.raises(KeyError):
            run_stream_lanes([("nope", capacity)], stream)


class TestRunGridIntegration:
    def test_mixed_closed_form_and_scripted(self):
        tasks = [make_task("lru"), make_task("faascache"),
                 make_task("greedy", seed=1), make_task("coldonly"),
                 make_task("zygote"), make_task("lookahead")]
        sequential = [sequential_cell(task) for task in tasks]
        for lanes in (1, 3):
            laned = run_grid(tasks, jobs=1, lanes=lanes)
            assert [c.summary for c in laned] == [
                c.summary for c in sequential]

    def test_proactive_policies_run_in_lanes(self):
        """mpc/lending/offline cells are lane-lowered like every other
        registry key and stay byte-identical to the sequential simulator,
        proactive telemetry blocks included."""
        tasks = [make_task("lru"), make_task("mpc"), make_task("lending"),
                 make_task("offline"), make_task("greedy", seed=1)]
        sequential = [sequential_cell(task) for task in tasks]
        laned = run_grid(tasks, jobs=1, lanes=4)
        assert [c.method for c in laned] == [c.method for c in sequential]
        assert [list(c.summary.items()) for c in laned] == [
            list(c.summary.items()) for c in sequential]

    def test_unknown_scheduler_raises_instead_of_fallback(self):
        tasks = [make_task("lru"), make_task("definitely-not-a-scheduler")]
        for lanes in (1, 2):
            with pytest.raises(KeyError):
                run_grid(tasks, jobs=1, lanes=lanes)

    def test_parallel_jobs_with_lanes(self):
        tasks = [make_task(s, seed=seed)
                 for seed in (0, 1) for s in ("lru", "keepalive", "greedy")]
        sequential = [sequential_cell(task) for task in tasks]
        for lanes in (1, 4):
            fanned = run_grid(tasks, jobs=2, lanes=lanes)
            assert [c.summary for c in fanned] == [
                c.summary for c in sequential]

    def test_lane_batch_larger_than_grid(self):
        tasks = [make_task("lru"), make_task("greedy")]
        laned = run_grid(tasks, jobs=1, lanes=64)
        assert [c.summary for c in laned] == [
            sequential_cell(task).summary for task in tasks]

    def test_stream_experiment_lanes_match(self):
        """``repro experiment stream`` end to end: every lane grouping
        produces the cells (and therefore the report) of per-cell
        sequential ``run_stream`` replays."""
        from repro.experiments.ext_stream_replay import report, run

        class _Scale:
            stream_functions, stream_invocations = STREAM_SHAPE

        schedulers, seeds = ("lru", "mpc"), (0, 1)
        reference = [
            run_stream_reference(key, seed)
            for seed in seeds for key in schedulers
        ]
        reports = set()
        for lanes in (1, 4):
            laned = run(_Scale(), schedulers=schedulers, seeds=seeds,
                        lanes=lanes)
            assert [(c.task.scheduler, c.task.seed) for c in laned.cells] \
                == [(key, seed) for seed in seeds for key in schedulers]
            assert [(c.method, list(c.summary.items()))
                    for c in laned.cells] == [
                (method, list(summary.items()))
                for method, summary in reference]
            reports.add(report(laned))
        assert len(reports) == 1


class TestKernelValidation:
    def test_unknown_scheduler_rejected(self):
        table = cached_arrival_table("LO-Sim", 0)
        spec = LaneSpec(scheduler="nope", table=table, capacity_mb=800.0)
        with pytest.raises(KeyError):
            LaneKernel([spec])

    def test_missing_table_rejected(self):
        spec = LaneSpec(scheduler="lru", table=None, capacity_mb=800.0)
        with pytest.raises(ValueError):
            LaneKernel([spec])


class _NoMatchReuse(Scheduler):
    """Rogue rule: picks an idle container that matches the arrival at no
    Table-I level."""

    name = "Rogue-NoMatch"

    def decide(self, pool, invocation, cost_model):
        image = invocation.spec.image
        for container in pool.containers():
            if match_level(image, container.image) is MatchLevel.NO_MATCH:
                return container, False, ()
        return COLD


class _UnknownIdReuse(Scheduler):
    """Rogue rule: picks a container whose id was never created."""

    name = "Rogue-UnknownId"

    def decide(self, pool, invocation, cost_model):
        stray = Container(container_id=10**9, image=invocation.spec.image)
        return stray, False, ()


class TestDecisionValidation:
    @pytest.mark.parametrize("rogue", [_NoMatchReuse, _UnknownIdReuse])
    def test_invalid_decision_raises_on_both_engines(
        self, rogue, monkeypatch
    ):
        """A lane validates every rule's warm pick exactly as the
        sequential claim does: an unknown id or a NO_MATCH container is an
        :class:`InvalidDecisionError` on both engines."""
        import repro.schedulers

        monkeypatch.setitem(SCHEDULER_CLASS_NAMES, "rogue", rogue.__name__)
        monkeypatch.setattr(repro.schedulers, rogue.__name__, rogue,
                            raising=False)
        task = make_task("rogue", "HI-Var", seed=0, capacity=float("inf"))
        with pytest.raises(InvalidDecisionError):
            sequential_cell(task)
        with pytest.raises(InvalidDecisionError):
            lane_summary(task)
