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
  function index, invocation id) plus a per-``(function, match level)``
  startup-latency table computed through the exact same
  :meth:`~repro.containers.costmodel.StartupCostModel.breakdown` call the
  sequential driver makes per arrival.  The hot loop never touches an
  :class:`~repro.workloads.workload.Invocation` object on the closed-form
  paths.  Tables are shared by every lane replaying the same draw;
  :meth:`ArrivalTable.from_stream` lowers a lazy arrival stream into
  bounded columnar chunks for O(1)-memory lane replay
  (:func:`run_stream_lanes`).
* **Run-to-completion lanes** -- lanes are independent, so each one
  replays its whole table in one loop (:meth:`_Lane.replay`): per arrival,
  due completions drain, TTL sweeps run, the decision is scored against
  the lane's warm-pool match index and then applied.  :meth:`LaneKernel.run`
  replays each lane once; :func:`run_stream_lanes` replays each lane once
  per stream chunk.
* **Shared pool semantics** -- each lane reuses the *real*
  :class:`~repro.cluster.pool.WarmPool` and
  :class:`~repro.cluster.eviction.EvictionPolicy` objects, so eviction
  ordering, TTL expiry, capacity accounting and peak tracking are identical
  to the sequential simulator by construction, not by reimplementation.

Every scheduler registry key (:data:`SCHEDULER_CLASS_NAMES`) runs in a lane,
through one of two modes:

* **Closed-form decision codes** -- LRU/KeepAlive (MRU exact match),
  Greedy-Match (deepest match), ColdOnly, Zygote (smallest covering
  same-OS container, preserved in place), W-AlwaysAdopt (cheapest same-OS
  delta cost, memoized per ``(function, container fingerprints)``) and
  Offline-Q (masked arg-max over the function's Q-row, bootstrapped from
  the same greedy reference rollout ``observe_workload`` runs).  These
  resolve through the warm pool's match index without instantiating the
  scheduler at all.
* **Scripted decisions** -- FaasCache, Lookahead, MPC-Prewarm and
  Pagurus-Lend keep their real ``decide()``: the lane builds the registry
  scheduler, hands it a per-arrival :class:`~repro.schedulers.base.\
SchedulingContext` backed by the lane's own pool, and replays the returned
  decision -- including any attached
  :class:`~repro.schedulers.base.PrewarmRequest` /
  :class:`~repro.schedulers.base.LendRequest` proactive actions -- through
  the lane lifecycle.  The vectorized latency table, tuple completion heap
  and columnar accumulation are shared either way.

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
import math
from array import array
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.eviction import (
    EvictionPolicy,
    LRUEviction,
    RejectNewcomerEviction,
)
from repro.cluster.pool import WarmPool, _mru_key
from repro.cluster.sketches import QuantileSketch
from repro.cluster.telemetry import column_percentiles, summary_fold
from repro.containers.container import Container, ContainerState
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import PrewarmRequest, SchedulingContext
from repro.workloads.workload import Invocation, Workload

__all__ = [
    "ArrivalTable",
    "LANE_SCHEDULERS",
    "LaneKernel",
    "LaneResult",
    "LaneSpec",
    "SCHEDULER_CLASS_NAMES",
    "STREAM_CHUNK_SIZE",
    "lane_mode",
    "run_stream_lanes",
]

#: The scheduler registry: CLI/grid key -> class name in
#: :mod:`repro.schedulers`.  This is the single source of truth shared by
#: :data:`repro.experiments.parallel.SCHEDULER_FACTORIES` (which builds the
#: sequential drivers from it) and the lane kernel's scripted mode (which
#: instantiates the same classes lazily).
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

#: Decision fast-path codes (one per supported scheduler family).
_DECIDE_COLD = 0      # always cold-start (ColdOnly)
_DECIDE_EXACT = 1     # MRU exact (L3) match or cold (LRU, KeepAlive)
_DECIDE_BEST = 2      # deepest match at any level or cold (Greedy-Match)
_DECIDE_ZYGOTE = 3    # smallest covering same-OS container, else exact
_DECIDE_WALWAYS = 4   # cheapest same-OS delta cost vs the cold latency
_DECIDE_OFFLINE = 5   # masked arg-max over the function's offline Q-row
_DECIDE_SCRIPTED = 6  # drive the registry scheduler's real decide()

#: Schedulers the lane kernel can replay: registry key ->
#: ``(display name, decision code, eviction-policy factory)``.  Closed-form
#: entries carry the method name and eviction pairing of their scheduler;
#: scripted entries carry ``(None, _DECIDE_SCRIPTED, None)`` -- the lane
#: builds the real scheduler and takes its ``name`` and
#: ``make_eviction_policy()`` (defaulting to LRU, like the simulator).
#: The closed-form fast paths are provably identical to the schedulers'
#: ``decide``: LRU and KeepAlive take the most-recently-used exact match
#: (``SchedulingContext.exact_matches()[0]``), Greedy-Match takes
#: ``pool.best_match`` when reusable, ColdOnly always cold-starts, Zygote
#: prefers the smallest covering same-OS container (``preserve_image``),
#: W-AlwaysAdopt minimizes the same-OS delta cost with a strict-less scan in
#: LRU order, and Offline-Q replays the masked arg-max over its
#: trace-fitted Q-table -- all of which resolve through the same warm-pool
#: match index (and interned fingerprints) the kernel queries directly.
LANE_SCHEDULERS: Dict[
    str, Tuple[Optional[str], int, Optional[Callable[[], EvictionPolicy]]]
] = {
    "lru": ("LRU", _DECIDE_EXACT, LRUEviction),
    "keepalive": (
        "KeepAlive",
        _DECIDE_EXACT,
        lambda: RejectNewcomerEviction(ttl_s=600.0),
    ),
    "greedy": ("Greedy-Match", _DECIDE_BEST, LRUEviction),
    "coldonly": ("ColdOnly", _DECIDE_COLD, LRUEviction),
    "zygote": ("Zygote", _DECIDE_ZYGOTE, LRUEviction),
    "walways": ("W-AlwaysAdopt", _DECIDE_WALWAYS, LRUEviction),
    "offline": ("Offline-Q", _DECIDE_OFFLINE, LRUEviction),
    "faascache": (None, _DECIDE_SCRIPTED, None),
    "lookahead": (None, _DECIDE_SCRIPTED, None),
    "mpc": (None, _DECIDE_SCRIPTED, None),
    "lending": (None, _DECIDE_SCRIPTED, None),
}

#: Default arrival-chunk size for streaming lane replay.  Large enough to
#: amortize the per-chunk columnar lowering, small enough that chunk buffers
#: stay O(1) in the stream length.
STREAM_CHUNK_SIZE = 4096

#: Completion-event kind codes inside a lane's heap.
_STARTUP_DONE = 0
_EXECUTION_DONE = 1

#: The cold-start decision tuple: (container, match, preserve, actions).
_COLD: Tuple[Optional[Container], int, bool, tuple] = (None, 0, False, ())

_MATCH_MEMBERS: Tuple[MatchLevel, ...] = tuple(MatchLevel)

#: Zygote covering-test memo: (function fingerprints, container
#: fingerprints) -> whether the container's package set covers the
#: function's.  Fingerprint interning is exact (equal fingerprints iff
#: equal package sets), so the memo key fully determines the answer; the
#: table is process-wide like the fingerprint intern tables themselves.
_COVERS: Dict[Tuple[tuple, tuple], bool] = {}

_MISSING = object()


def lane_mode(key: str) -> str:
    """``"closed-form"`` or ``"scripted"`` for a registry scheduler key."""
    entry = LANE_SCHEDULERS[key]
    return "scripted" if entry[1] == _DECIDE_SCRIPTED else "closed-form"


class ArrivalTable:
    """Columnar (struct-of-arrays) lowering of one workload draw.

    Built once per ``(workload, cost model)`` and shared read-only by every
    lane that replays the draw.  Columns are parallel arrays over the
    workload's arrival order (which the workload constructor already sorts
    by ``(arrival_time, invocation_id)`` -- the same order the event queue
    pops same-time arrivals in):

    ``times`` / ``exec_s`` / ``ids``
        Arrival timestamps, execution durations (float64) and invocation
        ids (int64; scripted lanes rebuild the exact
        :class:`~repro.workloads.workload.Invocation` from them).
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
        self.ids = np.fromiter(
            (inv.invocation_id for inv in invocations),
            dtype=np.int64, count=self.n,
        )
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
    """The Offline-Q policy an ``observe_workload`` bootstrap would fit.

    Replicates :meth:`OfflineQScheduler.observe_workload` exactly: a greedy
    reference rollout of the table's workload on an unbounded pool, its
    decision lines fitted into a tabular Q-policy.  The rollout is
    deterministic (same workload, same rollout, same policy), so caching
    the result on the table amortizes the bootstrap across every lane and
    capacity replaying the same draw -- the sequential driver refits per
    cell and gets bit-identical Q-values.  ``None`` when the table has no
    materialized workload (stream chunks): the streaming driver never
    bootstraps either, leaving Offline-Q on its greedy fallback.
    """
    if table.workload is None:
        return None
    policy = getattr(table, "_offline_policy", _MISSING)
    if policy is _MISSING:
        # Deferred imports: lanes must stay importable without dragging the
        # whole simulator/DRL stack in at package-import time.
        from repro.cluster.simulator import ClusterSimulator, SimulationConfig
        from repro.drl.offline import fit_from_traces, trace_lines_from_result
        from repro.schedulers.greedy import GreedyMatchScheduler

        reference = GreedyMatchScheduler()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=float("inf")),
            reference.make_eviction_policy(),
        )
        result = sim.run(table.workload, reference)
        policy = fit_from_traces([trace_lines_from_result(result)])
        table._offline_policy = policy
    return policy


@dataclass(frozen=True)
class LaneSpec:
    """One lane of a kernel run: a scheduler replaying a workload draw.

    ``scheduler`` must be a :data:`LANE_SCHEDULERS` key; ``table`` is the
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


class _Lane:
    """Mutable per-lane simulation state (pool, heap, counters).

    Only the fields the summary depends on are simulated; containers are
    real :class:`~repro.containers.container.Container` objects (the pool
    and eviction policies read their id, image, recency and idle state) but
    the checked state-machine transitions, cleaner, volumes and placement
    bookkeeping of the sequential lifecycle -- none of which influence a
    summary under the supported configuration -- are skipped.
    """

    __slots__ = (
        "table", "method", "decide_code", "scheduler", "eviction", "on_start",
        "ttl_s", "pool", "next_cid", "live_mb", "peak_live_memory_mb",
        "cold", "evictions", "keep_alive_rejections", "ttl_expirations",
        "latencies", "heap", "seq", "arr_i", "bounded", "lat_n", "lat_total",
        "lat_sketch", "prewarmed", "lent", "prewarms_issued",
        "prewarm_reuses", "prewarm_wasted", "lends_issued", "lend_reuses",
        "walways_costs", "offline_policy", "offline_rows",
    )

    #: Summary counters the lane never increments: lanes run with faults
    #: off and without a distilled-policy audit.
    container_crashes = 0
    stragglers = 0
    surrogate_audits = 0
    surrogate_disagreements = 0

    def __init__(self, spec: LaneSpec) -> None:
        entry = LANE_SCHEDULERS.get(spec.scheduler)
        if entry is None:
            raise KeyError(
                f"scheduler {spec.scheduler!r} has no lane path; "
                f"supported: {sorted(LANE_SCHEDULERS)}"
            )
        display, decide_code, eviction_factory = entry
        table = spec.table
        self.table = table
        self.decide_code = decide_code
        if decide_code == _DECIDE_SCRIPTED:
            # Deferred import: the schedulers package pulls in every policy
            # module; closed-form lanes never pay for it.
            import repro.schedulers as schedulers_pkg

            scheduler = getattr(
                schedulers_pkg, SCHEDULER_CLASS_NAMES[spec.scheduler]
            )()
            scheduler.reset()
            if table is not None and table.workload is not None and hasattr(
                scheduler, "observe_workload"
            ):
                scheduler.observe_workload(table.workload)
            self.scheduler = scheduler
            self.method = scheduler.name
            self.eviction = (
                scheduler.make_eviction_policy()
                if hasattr(scheduler, "make_eviction_policy")
                else LRUEviction()
            )
        else:
            self.scheduler = None
            self.method = display
            self.eviction = eviction_factory()
        # Bind the start hook only when the policy actually overrides the
        # base no-op (FaasCache's greedy-dual statistics); the closed-form
        # hot paths then skip the per-arrival call entirely.
        self.on_start = (
            self.eviction.on_function_start
            if type(self.eviction).on_function_start
            is not EvictionPolicy.on_function_start
            else None
        )
        self.ttl_s = self.eviction.ttl_s
        self.pool = WarmPool(spec.capacity_mb)
        self.next_cid = 1           # mirrors lifecycle's itertools.count(1)
        self.live_mb = 0.0
        self.peak_live_memory_mb = 0.0
        self.cold = 0
        self.evictions = 0
        self.keep_alive_rejections = 0
        self.ttl_expirations = 0
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
        # Proactive-action bookkeeping, mirroring ContainerLifecycle's:
        # pre-warmed ids awaiting first claim, lent ids -> target function.
        self.prewarmed: set = set()
        self.lent: Dict[int, str] = {}
        self.prewarms_issued = 0
        self.prewarm_reuses = 0
        self.prewarm_wasted = 0
        self.lends_issued = 0
        self.lend_reuses = 0
        # W-AlwaysAdopt delta-cost memo: (fn index, container fingerprints)
        # -> delta total_s.  Sound because delta breakdowns depend only on
        # the two images' package sets, which interned fingerprints
        # determine exactly.
        self.walways_costs: Dict[tuple, float] = {}
        # Offline-Q: the trace-fitted policy (None -> greedy fallback, as
        # in the streaming driver) and a per-function Q-row cache.
        self.offline_policy = (
            _offline_policy_for(table)
            if decide_code == _DECIDE_OFFLINE and table is not None
            else None
        )
        self.offline_rows: Dict[int, Optional[tuple]] = {}
        # Completion heap: (time, seq, kind, container, exec_s).  All
        # completions share event priority 1, so (time, seq) alone orders
        # them exactly as the sequential queue does; only *relative* seq
        # order matters, so batch lanes start past the arrival count purely
        # to mirror the batch loader's numbering while stream lanes count
        # from zero across chunks.
        self.heap: List[Tuple[float, int, int, Container, float]] = []
        self.seq = table.n if table is not None else 0
        self.arr_i = 0

    # -- event handling ------------------------------------------------------
    def _forget(self, container: Container) -> None:
        """Destroy-side bookkeeping (live memory, pre-warm/lend counters)."""
        self.live_mb = max(0.0, self.live_mb - container.image.memory_mb)
        cid = container.container_id
        if self.prewarmed and cid in self.prewarmed:
            self.prewarmed.discard(cid)
            self.prewarm_wasted += 1
        if self.lent:
            self.lent.pop(cid, None)

    def _sweep(self, now: float) -> None:
        """Expire pooled containers idle past the TTL (per-pop sweep)."""
        expired = self.pool.expire_older_than(now - self.ttl_s)
        if expired:
            self.ttl_expirations += len(expired)
            for container in expired:
                self._forget(container)

    def _keep_alive(self, container: Container, now: float) -> None:
        """Pool a finished container through the eviction policy."""
        victims = self.eviction.select_victims(self.pool, container, now)
        if victims is None:
            self.keep_alive_rejections += 1
            self._forget(container)
            return
        if victims:
            self.evictions += len(victims)
            pool_remove = self.pool.remove
            for victim in victims:
                pool_remove(victim.container_id)
                self._forget(victim)
        self.pool.add(container)

    def drain_until(self, t: float) -> None:
        """Handle every completion strictly before ``t`` (the next arrival).

        Same-time completions yield to the arrival (arrivals carry event
        priority 0); each pop runs the TTL sweep at its own time before
        handling, mirroring ``EventLoop.pop_next``.
        """
        heap = self.heap
        ttl_active = self.ttl_s is not None
        while heap and heap[0][0] < t:
            time, _seq, kind, container, exec_s = heapq.heappop(heap)
            if ttl_active and len(self.pool):
                self._sweep(time)
            if kind == _STARTUP_DONE:
                heapq.heappush(
                    heap,
                    (time + exec_s, self.seq, _EXECUTION_DONE, container, 0.0),
                )
                self.seq += 1
            else:
                container.state = ContainerState.IDLE
                container.last_used_at = time
                self._keep_alive(container, time)

    def replay(self, table: ArrivalTable) -> None:
        """Bind ``table`` and replay every arrival in it, in order.

        Per arrival: drain the completions due strictly before it, score
        the decision, apply it.  Completions still in flight afterwards
        stay queued, so a stream lane replays chunk after chunk and drains
        once at the end (:meth:`drain_all`).
        """
        self.table = table
        self.arr_i = 0
        drain_until = self.drain_until
        score = self.score
        apply = self.apply
        for t in table.times.tolist():
            drain_until(t)
            container, match, preserve, actions = score(t)
            apply(t, container, match, preserve, actions)

    def drain_all(self) -> None:
        """Run out every in-flight completion (the ``finish()`` drain)."""
        self.drain_until(float("inf"))

    # -- decision ------------------------------------------------------------
    def score(
        self, t: float
    ) -> Tuple[Optional[Container], int, bool, tuple]:
        """Decide the pending arrival.

        Returns ``(container or None, match, preserve_image, actions)`` --
        the same shape for every mode, so :meth:`apply` needs no dispatch.
        Runs the per-pop TTL sweep at the arrival's time first (the
        sequential loop sweeps on the arrival pop before the scheduler
        sees the context), then resolves the decision through the pool's
        match index (closed-form codes) or the registry scheduler's real
        ``decide`` (scripted mode).
        """
        if self.ttl_s is not None and len(self.pool):
            self._sweep(t)
        code = self.decide_code
        if code == _DECIDE_COLD:
            return _COLD
        table = self.table
        i = self.arr_i
        fn = table.fn_ix[i]
        spec = table.specs[fn]
        image = spec.image
        if code == _DECIDE_EXACT:
            container = self.pool.best_exact(image)
            if container is None:
                return _COLD
            return container, 3, False, ()
        if code == _DECIDE_BEST:
            container, level = self.pool.best_match(image)
            if container is None:
                return _COLD
            return container, int(level), False, ()
        if code == _DECIDE_ZYGOTE:
            return self._score_zygote(image)
        if code == _DECIDE_WALWAYS:
            return self._score_walways(fn, spec, image)
        if code == _DECIDE_OFFLINE:
            return self._score_offline(fn, spec, image)
        return self._score_scripted(t, i, spec)

    def _score_zygote(
        self, image
    ) -> Tuple[Optional[Container], int, bool, tuple]:
        """ZygoteScheduler: smallest covering same-OS container (preserved
        in place), else MRU exact match, else cold.

        Same-OS candidates are exactly the L1 index bucket (fingerprint
        interning makes ``os_packages`` equality a prefix-key lookup);
        ``same_configuration`` is full-fingerprint equality; covering is
        the memoized package-subset test.  The smallest-``(memory_mb, id)``
        and MRU-exact picks are order-free, so bucket iteration order is
        irrelevant.
        """
        pool = self.pool
        candidates = pool.match_candidates(image, MatchLevel.L1)
        if not candidates:
            return _COLD
        fps = image.fingerprints
        needed = None
        best = None
        best_key = None
        for c in candidates:
            c_fps = c.image.fingerprints
            if c_fps == fps:  # same_configuration <=> equal fingerprints
                continue
            pair = (fps, c_fps)
            covers = _COVERS.get(pair)
            if covers is None:
                if needed is None:
                    needed = frozenset(image.packages)
                covers = _COVERS[pair] = (
                    needed <= frozenset(c.image.packages)
                )
            if not covers:
                continue
            key = (c.memory_mb, c.container_id)
            if best_key is None or key < best_key:
                best_key = key
                best = c
        if best is not None:
            return best, int(match_level(image, best.image)), True, ()
        exact = pool.best_exact(image)
        if exact is None:
            return _COLD
        return exact, 3, False, ()

    def _score_walways(
        self, fn, spec, image
    ) -> Tuple[Optional[Container], int, bool, tuple]:
        """AlwaysAdoptScheduler: cheapest same-OS delta cost, adopted only
        when it beats the cold-start latency.

        The sequential scan visits idle containers LRU-first with a strict
        ``<``, so the first minimizer in LRU order wins; sorting the L1
        bucket by the MRU key reproduces that order exactly.
        """
        candidates = self.pool.match_candidates(image, MatchLevel.L1)
        if not candidates:
            return _COLD
        if len(candidates) > 1:
            candidates.sort(key=_mru_key)
        costs = self.walways_costs
        cost_model = self.table.cost_model
        finit = spec.function_init_s
        best = None
        best_cost = math.inf
        for c in candidates:
            key = (fn, c.image.fingerprints)
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = cost_model.delta_breakdown(
                    image, c.image, finit
                ).total_s
            if cost < best_cost:
                best_cost = cost
                best = c
        if best is not None and best_cost < self.table.latency[fn][0]:
            return best, int(match_level(image, best.image)), False, ()
        return _COLD

    def _score_offline(
        self, fn, spec, image
    ) -> Tuple[Optional[Container], int, bool, tuple]:
        """OfflineQScheduler: masked arg-max over the function's Q-row
        (MRU container at exactly the chosen level), greedy fallback when
        untrained / unseen / fully masked.

        The availability mask and the first-occurrence arg-max replicate
        ``masked_argmax`` over ``match_depth_counts``; Q-rows are cached
        per function with NaN cells pre-resolved to ``None``.
        """
        pool = self.pool
        policy = self.offline_policy
        if policy is not None:
            row = self.offline_rows.get(fn, _MISSING)
            if row is _MISSING:
                qvals = policy.action_values(spec.name)
                row = (
                    None if qvals is None else tuple(
                        None if math.isnan(v) else float(v) for v in qvals
                    )
                )
                self.offline_rows[fn] = row
            if row is not None:
                counts = pool.match_depth_counts(image)
                best_a = -1
                best_v = -math.inf
                for a in range(4):
                    v = row[a]
                    if v is None:
                        continue
                    if a and not counts[a]:
                        continue
                    if v > best_v:  # strict > keeps the first (argmax) max
                        best_v = v
                        best_a = a
                if best_a == 0:
                    return _COLD
                if best_a > 0:
                    container = pool.best_at_level(image, _MATCH_MEMBERS[best_a])
                    if container is not None:
                        return container, best_a, False, ()
                # Empty mask (or index drift) degrades to the greedy
                # fallback, exactly as the scheduler's safety branch does.
        container, level = pool.best_match(image)
        if container is None:
            return _COLD
        return container, int(level), False, ()

    def _score_scripted(
        self, t: float, i: int, spec
    ) -> Tuple[Optional[Container], int, bool, tuple]:
        """Drive the registry scheduler's real ``decide`` for this arrival.

        The context mirrors ``ClusterSimulator._context_for``: the pending
        invocation rebuilt from the columns, idle containers sorted by
        ``(last_used_at, container_id)`` (the PoolSet merge order), the
        lane's own pool behind the index-backed helpers.  ``worker_loads``
        / ``queue_depths`` stay empty -- no registry scheduler reads them
        (they are only populated under admission control, which lanes do
        not support).
        """
        table = self.table
        pool = self.pool
        invocation = Invocation(
            invocation_id=int(table.ids[i]),
            spec=spec,
            arrival_time=float(table.times[i]),
            execution_time_s=float(table.exec_s[i]),
        )
        ctx = SchedulingContext(
            now=t,
            invocation=invocation,
            idle_containers=tuple(sorted(pool.lru_order(), key=_mru_key)),
            cost_model=table.cost_model,
            pool_capacity_mb=pool.capacity_mb,
            pool_used_mb=pool.used_mb,
            pool=pool,
        )
        decision = self.scheduler.decide(ctx)
        if decision.container_id is None:
            if decision.actions:
                return None, 0, False, decision.actions
            return _COLD
        container = pool.get(decision.container_id)
        match = int(match_level(spec.image, container.image))
        return container, match, decision.preserve_image, decision.actions

    # -- application ---------------------------------------------------------
    def apply(
        self,
        t: float,
        container: Optional[Container],
        match: int,
        preserve: bool = False,
        actions: tuple = (),
    ) -> None:
        """Execute the scored decision for the pending arrival."""
        table = self.table
        i = self.arr_i
        fn = table.fn_ix[i]
        spec = table.specs[fn]
        if container is None:
            container = Container(
                container_id=self.next_cid, image=spec.image,
                created_at=t, last_used_at=0.0,
            )
            self.next_cid += 1
            self.live_mb += spec.image.memory_mb
            self.cold += 1
        else:
            cid = container.container_id
            self.pool.remove(cid)
            container.state = ContainerState.STARTING
            if self.prewarmed and cid in self.prewarmed:
                self.prewarmed.discard(cid)
                self.prewarm_reuses += 1
            if self.lent:
                target = self.lent.pop(cid, None)
                if target is not None and target == spec.name:
                    self.lend_reuses += 1
            if not preserve:
                # Repack: the image swap adjusts live memory exactly as
                # ``ContainerLifecycle.repack`` does (new minus old);
                # zygote-style preserve keeps the superset image in place.
                old_mb = container.image.memory_mb
                container.image = spec.image
                self.live_mb += spec.image.memory_mb - old_mb
        if self.live_mb > self.peak_live_memory_mb:
            self.peak_live_memory_mb = self.live_mb
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
            (t + latency, self.seq, _STARTUP_DONE, container,
             float(table.exec_s[i])),
        )
        self.seq += 1
        if self.on_start is not None:
            self.on_start(spec.name, latency, container.memory_mb, t)
        if actions:
            for action in actions:
                if isinstance(action, PrewarmRequest):
                    self._prewarm(action.image, action.function_name, t)
                else:
                    self._lend(
                        action.container_id, action.image,
                        action.function_name, t,
                    )
        self.arr_i = i + 1

    # -- proactive actions (pre-warm / lending) ------------------------------
    def _prewarm(self, image, function_name: str, now: float) -> None:
        """Replay a ``PrewarmRequest``: mirrors ``ContainerLifecycle.\
prewarm`` (idle creation, issue counter, pool entry via keep-alive)."""
        container = Container(
            container_id=self.next_cid, image=image,
            created_at=now, last_used_at=now,
        )
        self.next_cid += 1
        container.state = ContainerState.IDLE
        container.current_function = function_name
        self.live_mb += image.memory_mb
        self.prewarms_issued += 1
        self.prewarmed.add(container.container_id)
        if self.live_mb > self.peak_live_memory_mb:
            self.peak_live_memory_mb = self.live_mb
        self._keep_alive(container, now)

    def _lend(
        self, container_id: int, target_image, function_name: str, now: float
    ) -> None:
        """Replay a ``LendRequest``: mirrors ``ContainerLifecycle.lend``
        (validation, in-place repack toward the target, idle-clock reset)."""
        pool = self.pool
        container = pool.get(container_id)
        if container is None:
            return
        if match_level(target_image, container.image) is MatchLevel.NO_MATCH:
            return
        headroom = pool.capacity_mb - pool.used_mb + container.memory_mb
        if target_image.memory_mb > headroom:
            return
        pool.remove(container_id)
        old_mb = container.image.memory_mb
        container.image = target_image
        self.live_mb += target_image.memory_mb - old_mb
        container.current_function = function_name
        container.last_used_at = now
        pool.add(container)
        self.lends_issued += 1
        self.lent[container_id] = function_name
        if self.live_mb > self.peak_live_memory_mb:
            self.peak_live_memory_mb = self.live_mb

    # -- results -------------------------------------------------------------
    @property
    def peak_warm_memory_mb(self) -> float:
        """Warm-pool peak, read off the pool's own tracking."""
        return self.pool.peak_used_mb

    def summary(self) -> Dict[str, float]:
        """The cell summary, key-for-key and bit-for-bit equal to
        :meth:`repro.cluster.telemetry.Telemetry.summary` (or
        :class:`~repro.cluster.telemetry.BoundedTelemetry`'s in bounded
        mode) of the equivalent sequential run: same accumulation order,
        same numpy percentile calls / sketch estimates, and the same
        :func:`~repro.cluster.telemetry.summary_fold`."""
        if self.bounded:
            sketch = self.lat_sketch
            return summary_fold(
                self, self.lat_n, self.lat_total,
                sketch.percentile(50), sketch.percentile(95), self.cold,
            )
        latencies = self.latencies
        p50, p95 = column_percentiles(np.array(latencies, dtype=np.float64))
        return summary_fold(
            self, len(latencies), float(sum(latencies)), p50, p95, self.cold,
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
