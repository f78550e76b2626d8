"""Multi-lane simulation kernel: many grid cells per process, lean and fast.

A grid sweep replays thousands of *independent* simulations -- one per
``(scheduler, workload, seed, capacity)`` cell.  The sequential path runs
each cell through the full :class:`~repro.cluster.simulator.ClusterSimulator`
stack: a scheduling context per arrival, placement and admission, the
cleaner's volumes, monitor hooks and a 16-column telemetry append per
invocation.  None of that machinery is needed to produce the *summary* a
grid cell actually carries; the invocation lifecycle itself is shared.

This module runs many **lanes** (one lane = one cell) per process through a
lean kernel:

* **Shared arrival tables** -- each workload draw is wrapped once in an
  :class:`ArrivalTable`: the draw's
  :class:`~repro.workloads.workload.Invocation` list, in arrival order,
  beside the cost model that prices every start.  Lanes price a start with
  :meth:`~repro.containers.costmodel.StartupCostModel.latency_s`, the
  memoized total of the same
  :meth:`~repro.containers.costmodel.StartupCostModel.breakdown` the
  sequential driver prices each arrival with.  Tables are shared by every
  lane replaying the same draw;
  :meth:`ArrivalTable.from_stream` cuts a lazy arrival stream into
  bounded chunks for O(1)-memory lane replay (:func:`run_stream_lanes`).
* **Run-to-completion lanes** -- lanes are independent, so each one
  replays its whole table in one loop (:meth:`_Lane.replay`): per arrival,
  due completions pop off the heap of the lane's
  :class:`~repro.cluster.eventloop.EventLoop` and complete, TTL sweeps
  run, the scheduler's :meth:`~repro.schedulers.base.Scheduler.decide`
  rule decides against the lane's warm pool, the decided
  container starts, its latency is folded and its completion queued,
  and the decision's proactive actions are applied.  :meth:`LaneKernel.run` replays each
  lane once; :func:`run_stream_lanes` replays each lane once per stream
  chunk.
* **One invocation lifecycle** -- each lane *is* a
  :class:`~repro.cluster.lifecycle.PoolLifecycle`, the lifecycle the
  sequential :class:`~repro.cluster.lifecycle.ContainerLifecycle`
  extends, running on a real :class:`~repro.cluster.pool.WarmPool` and
  :class:`~repro.cluster.eviction.EvictionPolicy`.  Start (create, or
  validate, claim and repack), the completion heap and its numbering,
  complete (the checked transitions, keep-alive and eviction), TTL
  expiry, destroy, pre-warm and lend, live memory and the scalar
  :class:`~repro.cluster.telemetry.Counters` are therefore one
  implementation on both engines, not a reimplementation.

Every scheduler registry key (:data:`SCHEDULER_CLASS_NAMES`), and a
trained MLCR policy given as its policy-file bytes (``LaneSpec.policy``),
runs in a lane the same way: the lane calls the scheduler's
:meth:`~repro.schedulers.base.Scheduler.decide` rule on its own warm
pool once per arrival, with the arrival's
:class:`~repro.workloads.workload.Invocation`.  The sequential simulator
calls the same method on its :class:`~repro.cluster.pool.PoolSet`, so
both engines run one implementation.  Every warm pick passes
:meth:`~repro.cluster.lifecycle.PoolLifecycle.check_decision` inside the
shared :meth:`~repro.cluster.lifecycle.PoolLifecycle.start`, and any
attached
:class:`~repro.schedulers.base.PrewarmRequest` /
:class:`~repro.schedulers.base.LendRequest` actions replay through the
lane lifecycle.

**Byte-identical contract.**  For every registry scheduler and the default
grid configuration (no worker concurrency limit, single pool shard, faults
off), a lane's :meth:`_Lane.summary` is bit-equal to
``ClusterSimulator.run(...).telemetry.summary()`` for the same cell: same
event order (one completion per invocation, ordered ``(finish time, ready
time, seq)``, with arrivals before same-time completions), same decisions,
same floating-point accumulation order for latency totals and memory
peaks, same pre-warm / lending counter blocks.
Bounded lanes (``LaneSpec(bounded=True)``, used by the streaming replay)
fold latencies into the same sketch form as
:class:`~repro.cluster.telemetry.BoundedTelemetry`, so ``repro experiment
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

import io
import itertools
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.eviction import start_hook
from repro.cluster.lifecycle import PoolLifecycle
from repro.cluster.pool import WarmPool
from repro.cluster.sketches import QuantileSketch
from repro.cluster.telemetry import (
    Counters, fold_adder, latency_stats, summary_fold,
)
from repro.containers.costmodel import StartupCostModel
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
#: amortize the per-chunk rebinding of every lane, small enough that chunk
#: buffers stay O(1) in the stream length.
STREAM_CHUNK_SIZE = 4096

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
    """One workload draw as the lanes replay it.

    Built once per ``(workload, cost model)`` and shared read-only by every
    lane that replays the draw.  :attr:`invocations` is the draw's
    :class:`~repro.workloads.workload.Invocation` list in arrival order
    (which the workload constructor already sorts by ``(arrival_time,
    invocation_id)`` -- the same order the event queue pops same-time
    arrivals in); a lane reads each arrival's time, function and execution
    time off the object it hands to the scheduler's rule.

    :attr:`cost_model` prices every start of every lane replaying the
    table; it memoizes its breakdowns, so each ``(function, match level)``
    price is computed once per model.

    :attr:`workload` keeps the source workload for schedulers that need
    ``observe_workload`` (Lookahead's clairvoyance, Offline-Q's bootstrap
    rollout); stream chunks built by :meth:`from_stream` carry ``None``
    there, matching the streaming driver, which never calls it.
    """

    def __init__(
        self, workload: Workload, cost_model: Optional[StartupCostModel] = None
    ) -> None:
        self._init_from(
            workload.name, list(workload), cost_model or StartupCostModel()
        )
        self.workload: Optional[Workload] = workload

    def _init_from(
        self,
        name: str,
        invocations: List[Invocation],
        cost_model: StartupCostModel,
    ) -> None:
        """The one constructor body shared by whole-draw and chunk tables."""
        self.name = name
        self.cost_model = cost_model
        self.workload = None
        self.n = len(invocations)
        self.invocations = invocations

    @classmethod
    def from_stream(
        cls,
        stream: Iterable[Invocation],
        chunk_size: int = STREAM_CHUNK_SIZE,
        cost_model: Optional[StartupCostModel] = None,
    ) -> Iterator["ArrivalTable"]:
        """Cut a lazy arrival stream into bounded chunk tables.

        Yields one table per ``chunk_size`` arrivals (the final chunk may
        be shorter; an empty stream yields nothing).  All chunks share one
        cost model, whose memo keeps each start priced once across chunk
        boundaries, so memory stays O(chunk + #functions) regardless of
        stream length.  Chunk tables carry ``workload=None``: the
        streaming driver never calls ``observe_workload`` either.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        cost_model = cost_model or StartupCostModel()
        name = getattr(stream, "name", "<stream>")
        source = iter(stream)
        while True:
            block = list(itertools.islice(source, chunk_size))
            if not block:
                return
            table = cls.__new__(cls)
            table._init_from(name, block, cost_model)
            yield table


def _offline_policy_for(table: ArrivalTable):
    """The Offline-Q policy ``observe_workload`` bootstraps for the
    table's workload: :func:`~repro.schedulers.offline.bootstrap_policy`,
    whose per-workload memo every lane and the sequential engine share.
    The table must carry its workload."""
    from repro.schedulers.offline import bootstrap_policy

    return bootstrap_policy(table.workload)


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a kernel run: a scheduler replaying a workload draw.

    ``scheduler`` must be a :data:`SCHEDULER_CLASS_NAMES` key, or
    ``"mlcr"`` with ``policy`` holding the bytes of a trained policy file
    (:func:`~repro.core.persistence.save_scheduler`), which the lane loads
    from memory; ``table`` is the (shareable) arrival table of the lane's
    workload and
    ``capacity_mb`` the warm-pool capacity of the cell.  ``bounded``
    selects the latency fold's sketch form, as
    :class:`~repro.cluster.telemetry.BoundedTelemetry` does, instead of
    the exact column -- the streaming replay's O(1)-memory mode.
    :func:`run_stream_lanes` passes ``table=None`` and binds stream chunks
    as they arrive.
    """

    scheduler: str
    table: Optional[ArrivalTable]
    capacity_mb: float
    bounded: bool = False
    policy: Optional[bytes] = None


@dataclass(frozen=True)
class LaneResult:
    """Outcome of one lane: the cell's method name and telemetry summary."""

    method: str
    summary: Dict[str, float]


class _Lane(PoolLifecycle):
    """One lane: a :class:`~repro.cluster.lifecycle.PoolLifecycle` on its
    own warm pool, plus the lane's scheduler and latency fold.

    Start, the completion queue, complete, keep-alive, TTL expiry,
    destroy, pre-warm and lend are the shared lifecycle the sequential
    engine runs too; the lane's counters go to its own
    :class:`~repro.cluster.telemetry.Counters` record.  Containers are
    real :class:`~repro.containers.container.Container` objects through
    their checked transitions; the cleaner, volumes and placement of the
    sequential lifecycle -- none of which influence a summary under the
    supported configuration -- are skipped.  The latency fold is the
    exact column, or in bounded mode the sketch; the lane binds the one
    function that adds to it.
    """

    __slots__ = (
        "table", "method", "rule", "on_start", "cold", "latencies",
        "add_latency",
    )

    def __init__(self, spec: LaneSpec) -> None:
        from repro.schedulers.offline import OfflineQScheduler

        if spec.policy is not None:
            from repro.core.persistence import load_scheduler

            scheduler = load_scheduler(io.BytesIO(spec.policy))
        else:
            scheduler = scheduler_class(spec.scheduler)()
        scheduler.reset()
        table = spec.table
        self.table = table
        if table is not None and table.workload is not None:
            if isinstance(scheduler, OfflineQScheduler):
                # One bootstrap fit per workload draw, shared by every
                # lane and the sequential engine.
                scheduler.policy = _offline_policy_for(table)
            elif hasattr(scheduler, "observe_workload"):
                scheduler.observe_workload(table.workload)
        self.rule = scheduler.decide
        self.method = scheduler.name
        eviction = scheduler.make_eviction_policy()
        super().__init__(WarmPool(spec.capacity_mb), eviction, Counters())
        # Only FaasCache's greedy-dual statistics need the start hook.
        self.on_start = start_hook(eviction)
        self.cold = 0
        self.latencies = QuantileSketch(0.01) if spec.bounded else array("d")
        self.add_latency = fold_adder(self.latencies)

    def replay(self, table: ArrivalTable) -> None:
        """Bind ``table`` and replay every arrival in it, in order.

        Per arrival: complete the invocations due strictly before it, run
        the TTL sweep at the arrival's time (the sequential engine sweeps
        when it advances its clock to the arrival, before the scheduler
        decides), decide, start the decided container
        (:meth:`~repro.cluster.lifecycle.PoolLifecycle.start` validates a
        warm pick as the sequential engine does), price the start, fold
        its latency, queue its completion and apply the decision's
        proactive actions.  Completions still in flight afterwards stay
        queued, so a stream lane replays chunk after chunk and drains once
        at the end (:meth:`~repro.cluster.lifecycle.PoolLifecycle.\
drain_all`).  The completions go on the lane loop's heap in
        :meth:`~repro.cluster.eventloop.EventLoop.drain_until`'s order,
        pushed and popped inline: ``schedule`` / ``pop_next`` and their
        :class:`~repro.cluster.events.Event` records cost this loop 7 %.
        """
        self.table = table
        heap, seq = self.loop.heap, self.loop.seq
        complete = self.complete
        start = self.start
        pool = self.pool
        sweep = self.expire_ttl if self.eviction.ttl_s is not None else None
        rule = self.rule
        cost_model = table.cost_model
        latency_s = cost_model.latency_s
        add_latency = self.add_latency
        on_start = self.on_start
        cold = 0
        for invocation in table.invocations:
            t = invocation.arrival_time
            while heap and heap[0][0] < t:
                done, _, _, finished = heappop(heap)
                if sweep is not None and len(pool):
                    sweep(done)
                complete(finished, done)
            if sweep is not None and len(pool):
                sweep(t)
            picked, preserve, actions = rule(pool, invocation, cost_model)
            spec = invocation.spec
            container, match, _ = start(spec, picked, preserve, t)
            if picked is None:
                cold += 1
            latency = latency_s(spec.image, match, spec.function_init_s)
            add_latency(latency)
            # One completion per invocation, ordered (finish, ready_at, seq)
            # as in the sequential engine.
            ready_at = t + latency
            heappush(heap, (ready_at + invocation.execution_time_s, ready_at,
                            next(seq), container))
            if on_start is not None:
                on_start(spec.name, latency, container.image.memory_mb, t)
            if actions:
                self.apply_actions(actions, t)
        self.cold += cold

    # -- results -------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """The cell summary, key-for-key and bit-for-bit equal to
        :meth:`repro.cluster.telemetry.Telemetry.summary` (or
        :class:`~repro.cluster.telemetry.BoundedTelemetry`'s in bounded
        mode) of the equivalent sequential run: the same
        :func:`~repro.cluster.telemetry.latency_stats` of the same fold
        form, and the same :func:`~repro.cluster.telemetry.summary_fold`.
        The warm-pool peak is read off the pool's own tracking."""
        counters = self.counters
        counters.peak_warm_memory_mb = self.pool.peak_used_mb
        return summary_fold(
            counters, *latency_stats(self.latencies), self.cold
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
    lanes consume the same stream, cut once into
    :meth:`ArrivalTable.from_stream` chunks and re-bound to every lane as
    each chunk arrives, so memory stays O(chunk + #functions + in-flight
    containers) regardless of stream length.  Lanes fold latencies in
    the bounded (sketch) form; the result summaries are
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
