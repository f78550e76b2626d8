"""Multi-lane simulation kernel: many grid cells per process, lean and fast.

A grid sweep replays thousands of *independent* simulations -- one per
``(scheduler, workload, seed, capacity)`` cell.  The sequential path runs
each cell through the full :class:`~repro.cluster.simulator.ClusterSimulator`
stack: per-event :class:`~repro.cluster.events.Event` objects, the layered
lifecycle (cleaner, volumes, placement), a 16-column telemetry append per
invocation, and a :class:`~repro.schedulers.base.SchedulingContext` whose
construction sorts the whole pool per arrival.  None of that machinery is
needed to produce the *summary* a grid cell actually carries.

This module runs many **lanes** (one lane = one cell) per process through a
struct-of-arrays kernel:

* **Batched arrival ingestion** -- each workload draw is lowered once into an
  :class:`ArrivalTable`: numpy columns (arrival time, execution time,
  function index) beside the draw's
  :class:`~repro.workloads.workload.Invocation` list, plus a
  per-``(function, match level)`` startup-latency table computed through
  the exact same
  :meth:`~repro.containers.costmodel.StartupCostModel.breakdown` call the
  sequential driver makes per arrival.  Tables are shared by every lane
  replaying the same draw;
  :meth:`ArrivalTable.from_stream` lowers a lazy arrival stream into
  bounded columnar chunks for O(1)-memory lane replay
  (:func:`run_stream_lanes`).
* **Run-to-completion lanes** -- lanes are independent, so each one
  replays its whole table in one loop (:meth:`_Lane.replay`): per arrival,
  due completions drain, TTL sweeps run, the scheduler's
  :meth:`~repro.schedulers.base.Scheduler.decide_pool` rule decides
  against the lane's warm pool, a warm pick is validated, and the
  decision and its proactive actions are applied.
  :meth:`LaneKernel.run` replays each lane once; :func:`run_stream_lanes`
  replays each lane once per stream chunk.
* **Shared pool semantics** -- each lane *is* a
  :class:`~repro.cluster.lifecycle.PoolLifecycle`, the pool-side container
  bookkeeping the sequential :class:`~repro.cluster.lifecycle.\
ContainerLifecycle` extends, running on a real
  :class:`~repro.cluster.pool.WarmPool` and
  :class:`~repro.cluster.eviction.EvictionPolicy`.  Create, claim, repack,
  keep-alive and eviction, TTL expiry, destroy, pre-warm and lend, live
  memory and the scalar :class:`~repro.cluster.telemetry.Counters` are
  therefore one implementation on both engines, not a reimplementation.

Every scheduler registry key (:data:`SCHEDULER_CLASS_NAMES`) runs in a lane
the same way: the lane calls the scheduler's
:meth:`~repro.schedulers.base.Scheduler.decide_pool` rule on its own warm
pool once per arrival, with the arrival's lowered
:class:`~repro.workloads.workload.Invocation` and no scheduling context.
The sequential simulator reaches the same rule through
:meth:`~repro.schedulers.base.Scheduler.decide`, so both engines run one
implementation.  Every warm pick passes
:meth:`~repro.cluster.lifecycle.PoolLifecycle.check_decision`, the
sequential claim's validation, and any attached
:class:`~repro.schedulers.base.PrewarmRequest` /
:class:`~repro.schedulers.base.LendRequest` actions replay through the
lane lifecycle.

**Byte-identical contract.**  For every registry scheduler and the default
grid configuration (no worker concurrency limit, single pool shard, faults
off), a lane's :meth:`_Lane.summary` is bit-equal to
``ClusterSimulator.run(...).telemetry.summary()`` for the same cell: same
event order (``(time, priority, seq)`` with arrivals before same-time
completions), same decisions, same floating-point accumulation order for
latency totals and memory peaks, same pre-warm / lending counter blocks.
Bounded lanes (``LaneSpec(bounded=True)``, used by the streaming replay)
fold latencies the way :class:`~repro.cluster.telemetry.BoundedTelemetry`
does -- running total plus quantile sketch -- so ``repro experiment
stream`` is byte-identical to ``ClusterSimulator.run_stream`` with bounded
telemetry.  The ``lanes_vs_sequential`` and ``streaming_vs_materialized``
differential oracles and the hypothesis suites in ``tests/test_lanes.py``
enforce all of this.

This kernel is the only engine behind
:func:`repro.experiments.parallel.run_grid` and
:func:`repro.experiments.ext_stream_replay.run`; their ``lanes`` argument
(the CLI's ``--lanes``) only sets how many cells share one kernel.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.eviction import EvictionPolicy
from repro.cluster.lifecycle import PoolLifecycle
from repro.cluster.pool import WarmPool
from repro.cluster.sketches import QuantileSketch
from repro.cluster.telemetry import Counters, column_percentiles, summary_fold
from repro.containers.container import Container, ContainerState
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel
from repro.workloads.workload import Invocation, Workload

__all__ = [
    "ArrivalTable",
    "LaneKernel",
    "LaneResult",
    "LaneSpec",
    "SCHEDULER_CLASS_NAMES",
    "STREAM_CHUNK_SIZE",
    "run_stream_lanes",
    "scheduler_class",
]

#: The scheduler registry: CLI/grid key -> class name in
#: :mod:`repro.schedulers`.  This is the single source of truth shared by
#: :data:`repro.experiments.parallel.SCHEDULER_FACTORIES` (which builds the
#: sequential drivers from it) and the lane kernel (which instantiates the
#: same classes lazily).
SCHEDULER_CLASS_NAMES: Dict[str, str] = {
    "lru": "LRUScheduler",
    "faascache": "FaasCacheScheduler",
    "keepalive": "KeepAliveScheduler",
    "greedy": "GreedyMatchScheduler",
    "coldonly": "ColdOnlyScheduler",
    "lookahead": "LookaheadScheduler",
    "zygote": "ZygoteScheduler",
    "walways": "AlwaysAdoptScheduler",
    "mpc": "MPCScheduler",
    "lending": "PagurusLendingScheduler",
    "offline": "OfflineQScheduler",
}

#: Default arrival-chunk size for streaming lane replay.  Large enough to
#: amortize the per-chunk columnar lowering, small enough that chunk buffers
#: stay O(1) in the stream length.
STREAM_CHUNK_SIZE = 4096

#: Completion-event kind codes inside a lane's heap.
_STARTUP_DONE = 0
_EXECUTION_DONE = 1

_MISSING = object()


def scheduler_class(key: str) -> type:
    """The registry class behind ``key`` (``KeyError`` when unknown)."""
    try:
        class_name = SCHEDULER_CLASS_NAMES[key]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {key!r}; "
            f"choose from {sorted(SCHEDULER_CLASS_NAMES)}"
        ) from None
    # Deferred import: the schedulers package pulls in every policy module.
    import repro.schedulers as schedulers_pkg

    return getattr(schedulers_pkg, class_name)


class ArrivalTable:
    """Columnar (struct-of-arrays) lowering of one workload draw.

    Built once per ``(workload, cost model)`` and shared read-only by every
    lane that replays the draw.  Columns are parallel arrays over the
    workload's arrival order (which the workload constructor already sorts
    by ``(arrival_time, invocation_id)`` -- the same order the event queue
    pops same-time arrivals in):

    ``times`` / ``exec_s``
        Arrival timestamps and execution durations (float64).
    ``invocations``
        The lowered :class:`~repro.workloads.workload.Invocation` objects
        themselves, handed to the scheduler's rule.
    ``fn_ix``
        Index into :attr:`specs` for each arrival (int32).
    ``latency``
        ``latency[fn][int(match)]`` -- the startup latency of starting
        ``specs[fn]`` at a given Table-I match level, precomputed through
        the same cost-model :meth:`~repro.containers.costmodel.\
StartupCostModel.breakdown` the sequential driver evaluates per arrival
        (breakdowns are pure and order-independent, so the floats are
        bit-identical).

    :attr:`workload` keeps the source workload for schedulers that need
    ``observe_workload`` (Lookahead's clairvoyance, Offline-Q's bootstrap
    rollout); stream chunks built by :meth:`from_stream` carry ``None``
    there, matching the streaming driver, which never calls it.
    """

    def __init__(
        self, workload: Workload, cost_model: Optional[StartupCostModel] = None
    ) -> None:
        cost_model = cost_model or StartupCostModel()
        self._init_from(workload.name, list(workload), cost_model, [], {}, [])
        self.workload: Optional[Workload] = workload

    def _init_from(
        self,
        name: str,
        invocations: List[Invocation],
        cost_model: StartupCostModel,
        specs: List,
        index_of: Dict[int, int],
        latency: List[List[float]],
    ) -> None:
        """Populate the columns from ``invocations``.

        ``specs`` / ``index_of`` / ``latency`` are the (shared, append-only)
        function registries -- chunk tables from one stream pass the same
        lists so function indices stay stable across chunks and per-spec
        latency rows are computed exactly once, at first encounter.
        """
        self.name = name
        self.cost_model = cost_model
        self.workload = None
        self.n = len(invocations)
        self.times = np.fromiter(
            (inv.arrival_time for inv in invocations),
            dtype=np.float64, count=self.n,
        )
        self.exec_s = np.fromiter(
            (inv.execution_time_s for inv in invocations),
            dtype=np.float64, count=self.n,
        )
        self.invocations = invocations
        fn_ix = np.empty(self.n, dtype=np.int32)
        for i, inv in enumerate(invocations):
            spec = inv.spec
            key = id(spec)
            ix = index_of.get(key)
            if ix is None:
                ix = index_of[key] = len(specs)
                specs.append(spec)
                latency.append([
                    cost_model.breakdown(
                        spec.image, level, spec.function_init_s
                    ).total_s
                    for level in MatchLevel
                ])
            fn_ix[i] = ix
        self.fn_ix = fn_ix
        self.specs = specs
        self.latency = latency

    @classmethod
    def from_stream(
        cls,
        stream: Iterable[Invocation],
        chunk_size: int = STREAM_CHUNK_SIZE,
        cost_model: Optional[StartupCostModel] = None,
    ) -> Iterator["ArrivalTable"]:
        """Lower a lazy arrival stream into bounded columnar chunks.

        Yields one table per ``chunk_size`` arrivals (the final chunk may
        be shorter; an empty stream yields nothing).  All chunks share one
        function registry -- ``specs`` / ``fn_ix`` indices are stable
        across chunks and each function's latency row is computed once --
        so memory stays O(chunk + #functions) regardless of stream length.
        Chunk tables carry ``workload=None``: the streaming driver never
        calls ``observe_workload`` either.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        cost_model = cost_model or StartupCostModel()
        name = getattr(stream, "name", "<stream>")
        specs: List = []
        index_of: Dict[int, int] = {}
        latency: List[List[float]] = []
        source = iter(stream)
        while True:
            block = list(itertools.islice(source, chunk_size))
            if not block:
                return
            table = cls.__new__(cls)
            table._init_from(name, block, cost_model, specs, index_of, latency)
            yield table


def _offline_policy_for(table: ArrivalTable):
    """The Offline-Q policy ``observe_workload`` would bootstrap for the
    table's workload, fitted once per table.

    :func:`~repro.schedulers.offline.bootstrap_policy` is deterministic
    (same workload, same rollout, same policy), so caching its result on
    the table amortizes the bootstrap across every lane and capacity
    replaying the same draw -- the sequential driver refits per cell and
    gets bit-identical Q-values.  The table must carry its workload.
    """
    policy = getattr(table, "_offline_policy", _MISSING)
    if policy is _MISSING:
        from repro.schedulers.offline import bootstrap_policy

        policy = table._offline_policy = bootstrap_policy(table.workload)
    return policy


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a kernel run: a scheduler replaying a workload draw.

    ``scheduler`` must be a :data:`SCHEDULER_CLASS_NAMES` key; ``table`` is the
    (shareable) columnar lowering of the lane's workload and
    ``capacity_mb`` the warm-pool capacity of the cell.  ``bounded``
    selects :class:`~repro.cluster.telemetry.BoundedTelemetry`-equivalent
    folding (running totals plus quantile sketches instead of a latency
    column) -- the streaming replay's O(1)-memory mode.
    :func:`run_stream_lanes` passes ``table=None`` and binds stream chunks
    as they arrive.
    """

    scheduler: str
    table: Optional[ArrivalTable]
    capacity_mb: float
    bounded: bool = False


@dataclass(frozen=True)
class LaneResult:
    """Outcome of one lane: the cell's method name and telemetry summary."""

    method: str
    summary: Dict[str, float]


class _Lane(PoolLifecycle):
    """One lane: a :class:`~repro.cluster.lifecycle.PoolLifecycle` on its
    own warm pool, plus the lane's scheduler, completion heap and latency
    fold.

    Create, claim, repack, keep-alive, TTL expiry, destroy, pre-warm and
    lend are the shared pool bookkeeping the sequential lifecycle runs
    too; the lane's counters go to its own
    :class:`~repro.cluster.telemetry.Counters` record.  Containers are
    real :class:`~repro.containers.container.Container` objects (the pool
    and eviction policies read their id, image, recency and idle state),
    but the checked state-machine transitions, cleaner, volumes and
    placement of the sequential lifecycle -- none of which influence a
    summary under the supported configuration -- are skipped.
    """

    __slots__ = (
        "table", "method", "rule", "on_start", "cold",
        "latencies", "heap", "seq", "bounded", "lat_n", "lat_total",
        "lat_sketch",
    )

    def __init__(self, spec: LaneSpec) -> None:
        from repro.schedulers.offline import OfflineQScheduler

        scheduler = scheduler_class(spec.scheduler)()
        scheduler.reset()
        table = spec.table
        self.table = table
        if table is not None and table.workload is not None:
            if isinstance(scheduler, OfflineQScheduler):
                # One bootstrap fit per table, shared by its lanes.
                scheduler.policy = _offline_policy_for(table)
            elif hasattr(scheduler, "observe_workload"):
                scheduler.observe_workload(table.workload)
        self.rule = scheduler.decide_pool
        self.method = scheduler.name
        eviction = scheduler.make_eviction_policy()
        super().__init__(WarmPool(spec.capacity_mb), eviction, Counters())
        # Bind the start hook only when the policy actually overrides the
        # base no-op (FaasCache's greedy-dual statistics); other lanes then
        # skip the per-arrival call entirely.
        self.on_start = (
            eviction.on_function_start
            if type(eviction).on_function_start
            is not EvictionPolicy.on_function_start
            else None
        )
        self.cold = 0
        self.bounded = spec.bounded
        if spec.bounded:
            self.latencies = None
            self.lat_n = 0
            self.lat_total = 0.0
            self.lat_sketch = QuantileSketch(0.01)
        else:
            self.latencies = array("d")
            self.lat_n = 0
            self.lat_total = 0.0
            self.lat_sketch = None
        # Completion heap: (time, seq, kind, container, exec_s).  All
        # completions share event priority 1, so (time, seq) alone orders
        # them exactly as the sequential queue does; only *relative* seq
        # order matters, so batch lanes start past the arrival count purely
        # to mirror the batch loader's numbering while stream lanes count
        # from zero across chunks.
        self.heap: List[Tuple[float, int, int, Container, float]] = []
        self.seq = table.n if table is not None else 0

    # -- event handling ------------------------------------------------------
    def drain_until(self, t: float) -> None:
        """Handle every completion strictly before ``t`` (the next arrival).

        Same-time completions yield to the arrival (arrivals carry event
        priority 0); each pop runs the TTL sweep at its own time before
        handling, mirroring ``EventLoop.pop_next``.
        """
        heap = self.heap
        ttl_active = self.eviction.ttl_s is not None
        while heap and heap[0][0] < t:
            time, _seq, kind, container, exec_s = heapq.heappop(heap)
            if ttl_active and len(self.pool):
                self.expire_ttl(time)
            if kind == _STARTUP_DONE:
                heapq.heappush(
                    heap,
                    (time + exec_s, self.seq, _EXECUTION_DONE, container, 0.0),
                )
                self.seq += 1
            else:
                container.state = ContainerState.IDLE
                container.last_used_at = time
                self.keep_alive(container, time)

    def replay(self, table: ArrivalTable) -> None:
        """Bind ``table`` and replay every arrival in it, in order.

        Per arrival: drain the completions due strictly before it, run the
        TTL sweep at the arrival's time (the sequential loop sweeps on the
        arrival pop before the scheduler decides), decide, validate a warm
        pick as the sequential claim does
        (:class:`~repro.cluster.lifecycle.InvalidDecisionError` on an
        unknown id or a NO_MATCH container), apply.
        Completions still in flight afterwards stay queued, so a stream
        lane replays chunk after chunk and drains once at the end
        (:meth:`drain_all`).
        """
        self.table = table
        drain_until = self.drain_until
        apply = self.apply
        pool = self.pool
        sweep = self.expire_ttl if self.eviction.ttl_s is not None else None
        rule = self.rule
        check = self.check_decision
        cost_model = table.cost_model
        invocations = table.invocations
        fn_ix = table.fn_ix.tolist()
        exec_s = table.exec_s.tolist()
        for i, t in enumerate(table.times.tolist()):
            drain_until(t)
            if sweep is not None and len(pool):
                sweep(t)
            invocation = invocations[i]
            container, match, preserve, actions = rule(
                pool, invocation, cost_model
            )
            if container is not None:
                container, match = check(
                    container.container_id, invocation.spec
                )
            apply(t, fn_ix[i], exec_s[i], container, match, preserve, actions)

    def drain_all(self) -> None:
        """Run out every in-flight completion (the ``finish()`` drain)."""
        self.drain_until(float("inf"))

    # -- application ---------------------------------------------------------
    def apply(
        self,
        t: float,
        fn: int,
        exec_s: float,
        container: Optional[Container],
        match: int,
        preserve: bool,
        actions: tuple,
    ) -> None:
        """Execute a decision for an arrival of function ``fn`` at ``t``."""
        table = self.table
        spec = table.specs[fn]
        if container is None:
            container = self.create(spec.image, spec.name, t)
            self.cold += 1
        else:
            self.claim(container.container_id, spec, t)
            container.state = ContainerState.STARTING
            if not preserve:
                # Zygote-style preserve keeps the superset image in place.
                self.repack(container, spec.image, spec.name)
        counters = self.counters
        if self.live_memory_mb > counters.peak_live_memory_mb:
            counters.peak_live_memory_mb = self.live_memory_mb
        latency = table.latency[fn][match]
        if self.bounded:
            self.lat_n += 1
            self.lat_total += latency
            self.lat_sketch.insert(latency)
        else:
            self.latencies.append(latency)
        # begin_startup stamps the claim time and the serving function (the
        # latter feeds FaasCache's greedy-dual priorities).
        container.current_function = spec.name
        container.last_used_at = t
        heapq.heappush(
            self.heap,
            (t + latency, self.seq, _STARTUP_DONE, container, exec_s),
        )
        self.seq += 1
        if self.on_start is not None:
            self.on_start(spec.name, latency, container.memory_mb, t)
        if actions:
            self.apply_actions(actions, t)

    # -- results -------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """The cell summary, key-for-key and bit-for-bit equal to
        :meth:`repro.cluster.telemetry.Telemetry.summary` (or
        :class:`~repro.cluster.telemetry.BoundedTelemetry`'s in bounded
        mode) of the equivalent sequential run: same accumulation order,
        same numpy percentile calls / sketch estimates, and the same
        :func:`~repro.cluster.telemetry.summary_fold`.  The warm-pool peak
        is read off the pool's own tracking."""
        counters = self.counters
        counters.peak_warm_memory_mb = self.pool.peak_used_mb
        if self.bounded:
            sketch = self.lat_sketch
            return summary_fold(
                counters, self.lat_n, self.lat_total,
                sketch.percentile(50), sketch.percentile(95), self.cold,
            )
        latencies = self.latencies
        p50, p95 = column_percentiles(np.array(latencies, dtype=np.float64))
        return summary_fold(
            counters, len(latencies), float(sum(latencies)), p50, p95,
            self.cold,
        )


class LaneKernel:
    """Run many independent simulation lanes in one process.

    Parameters
    ----------
    specs:
        One :class:`LaneSpec` per lane.  Lanes replaying the same workload
        draw should share one :class:`ArrivalTable` instance (the grid
        runner's per-process table cache arranges this).
    """

    def __init__(self, specs: Sequence[LaneSpec]) -> None:
        for spec in specs:
            if spec.table is None:
                raise ValueError(
                    "LaneKernel lanes need a bound ArrivalTable; "
                    "use run_stream_lanes for chunked streaming replay"
                )
        self.lanes = [_Lane(spec) for spec in specs]

    def run(self) -> List[LaneResult]:
        """Run every lane to completion; results in lane order."""
        for lane in self.lanes:
            lane.replay(lane.table)
            lane.drain_all()
        return [
            LaneResult(method=lane.method, summary=lane.summary())
            for lane in self.lanes
        ]


def run_stream_lanes(
    cells: Sequence[Tuple[str, float]],
    stream: Iterable[Invocation],
    chunk_size: int = STREAM_CHUNK_SIZE,
    cost_model: Optional[StartupCostModel] = None,
) -> List[LaneResult]:
    """Replay one arrival stream through many bounded lanes at once.

    ``cells`` is one ``(scheduler key, capacity_mb)`` pair per lane; all
    lanes consume the same stream, lowered once into
    :meth:`ArrivalTable.from_stream` chunks and re-bound to every lane as
    each chunk arrives, so memory stays O(chunk + #functions + in-flight
    containers) regardless of stream length.  Lanes run in
    ``BoundedTelemetry``-equivalent folding; the result summaries are
    byte-identical to ``ClusterSimulator.run_stream`` with
    ``SimulationConfig(bounded_telemetry=True)`` per cell (the
    ``streaming_vs_materialized`` oracle pins this).
    """
    lanes = [
        _Lane(LaneSpec(
            scheduler=key, table=None, capacity_mb=capacity, bounded=True,
        ))
        for key, capacity in cells
    ]
    for chunk in ArrivalTable.from_stream(
        stream, chunk_size=chunk_size, cost_model=cost_model
    ):
        for lane in lanes:
            lane.replay(chunk)
    for lane in lanes:
        lane.drain_all()
    return [
        LaneResult(method=lane.method, summary=lane.summary())
        for lane in lanes
    ]
