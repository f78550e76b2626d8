"""Telemetry: everything the evaluation section measures.

The paper's figures need, per run: total/average startup latency, number of
cold starts, cumulative latency trajectories (Fig. 9), peak warm-pool memory
and eviction counts (Fig. 10), plus per-invocation breakdowns (Fig. 1).

Storage is *columnar* (struct-of-arrays): every per-invocation field lives
in its own ``array('d')`` / ``array('q')`` column, with function names
interned into a string table.  Appending an event touches a handful of
primitive array slots instead of allocating a Python object per invocation,
and the aggregates (:meth:`Telemetry.summary`, percentiles, per-worker
utilization) compute directly over the columns in one pass.  The historical
row-oriented view -- :class:`InvocationRecord` -- is materialized lazily
(and cached) by the :attr:`Telemetry.records` property for the callers that
still compare whole rows (the batch-vs-incremental oracle).

Startup latencies (and queueing delays) go into a *fold* with two forms:
the exact ``array('d')`` column, or a bounded
:class:`~repro.cluster.sketches.QuantileSketch` whose ``count`` and
``sum`` are exact (the sum a left-to-right running total).
:func:`fold_adder` gives the one function that adds a value to either
form and :func:`latency_stats` reads ``(n, total, p50, p95)`` off either;
:class:`Telemetry`, :class:`BoundedTelemetry` and every lane of
:mod:`repro.cluster.lanes` summarize through them.

The pre-columnar list implementation survives as
:class:`repro.cluster.telemetry_reference.LegacyTelemetry`; the hypothesis
parity suite (``tests/test_telemetry_parity.py``) drives both with random
event streams and asserts identical summaries and aggregates.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.cluster.sketches import QuantileSketch
from repro.containers.costmodel import StartupBreakdown
from repro.containers.matching import MatchLevel

#: MatchLevel members indexed by their integer value (levels are contiguous
#: from 0), used to rebuild enum members from the ``match`` column without
#: paying the ``MatchLevel(int)`` constructor per row.
_MATCH_MEMBERS: Tuple[MatchLevel, ...] = tuple(MatchLevel)


@dataclass(frozen=True)
class InvocationRecord:
    """Per-invocation outcome.

    ``startup_latency_s`` includes any queueing delay the startup spent
    waiting for a worker concurrency slot; ``queue_delay_s`` records that
    component separately (0 when admission control is disabled).
    """

    invocation_id: int
    function_name: str
    arrival_time: float
    container_id: int
    cold_start: bool
    match: MatchLevel
    startup_latency_s: float
    breakdown: StartupBreakdown
    execution_time_s: float
    queue_delay_s: float = 0.0
    worker_id: int = 0

    @property
    def finish_time(self) -> float:
        return self.arrival_time + self.startup_latency_s + self.execution_time_s

    @property
    def service_latency_s(self) -> float:
        """Startup latency excluding time queued for a worker slot."""
        return self.startup_latency_s - self.queue_delay_s


class InvocationColumns(NamedTuple):
    """Zero-copy view over the telemetry's per-invocation columns.

    Numeric fields are the live ``array`` columns (do not mutate);
    ``function_name`` is materialized as a list of interned name references.
    Consumers that only need scalar fields (golden-trace recording, columnar
    IPC packing) iterate these directly instead of building one
    :class:`InvocationRecord` object per row.
    """

    invocation_id: Sequence[int]
    function_name: Sequence[str]
    arrival_time: Sequence[float]
    container_id: Sequence[int]
    cold_start: Sequence[int]
    match: Sequence[int]
    startup_latency_s: Sequence[float]
    queue_delay_s: Sequence[float]
    worker_id: Sequence[int]
    execution_time_s: Sequence[float]


#: A latency fold: the exact column or its bounded sketch form.
Fold = Union[array, QuantileSketch]


def fold_adder(fold: Fold) -> Callable[[float], None]:
    """The function that adds one value to ``fold``: the column's
    ``append`` or the sketch's ``insert``."""
    return fold.insert if isinstance(fold, QuantileSketch) else fold.append


def fold_totals(fold: Fold) -> Tuple[int, float]:
    """``(n, total)`` of a fold: the column's length and ``sum``, or the
    sketch's exact count and left-to-right running sum."""
    if isinstance(fold, QuantileSketch):
        return fold.count, fold.sum
    return len(fold), float(sum(fold))


def latency_stats(fold: Fold) -> Tuple[int, float, float, float]:
    """``(n, total, p50, p95)`` of a latency fold.

    The column gives exact order statistics (numpy's median and 95th
    percentile, zeros when empty); the sketch gives its estimates.
    """
    n, total = fold_totals(fold)
    if isinstance(fold, QuantileSketch):
        return n, total, fold.percentile(50), fold.percentile(95)
    if not n:
        return n, total, 0.0, 0.0
    lat = np.array(fold, dtype=np.float64)
    return n, total, float(np.median(lat)), float(np.percentile(lat, 95))


def summary_fold(
    counters: "Counters",
    n: int,
    total_s: float,
    p50_s: float,
    p95_s: float,
    cold: int,
    queueing: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """The scalar run summary, built the same way for every engine.

    ``counters`` is a :class:`Counters` record: a telemetry collector or a
    lane's own record.  The latency statistics are
    :func:`latency_stats` of the caller's latency fold, and the cold-start
    count is the caller's.  The 14 base keys are
    always present; the queueing block is appended when given, and the
    surrogate-audit, pre-warm and lending blocks when their counters are
    non-zero, in that order.
    """
    base = {
        "invocations": float(n),
        "total_startup_s": total_s,
        "mean_startup_s": total_s / n if n else 0.0,
        "p50_startup_s": p50_s,
        "p95_startup_s": p95_s,
        "cold_starts": float(cold),
        "warm_starts": float(n - cold),
        "evictions": float(counters.evictions),
        "keep_alive_rejections": float(counters.keep_alive_rejections),
        "ttl_expirations": float(counters.ttl_expirations),
        "peak_warm_memory_mb": counters.peak_warm_memory_mb,
        "peak_live_memory_mb": counters.peak_live_memory_mb,
        "container_crashes": float(counters.container_crashes),
        "stragglers": float(counters.stragglers),
    }
    if queueing is not None:
        base.update(queueing)
    if counters.surrogate_audits:
        base["surrogate_audits"] = float(counters.surrogate_audits)
        base["surrogate_disagreements"] = float(
            counters.surrogate_disagreements
        )
    if counters.prewarms_issued:
        base["prewarms_issued"] = float(counters.prewarms_issued)
        base["prewarm_reuses"] = float(counters.prewarm_reuses)
        base["prewarm_wasted"] = float(counters.prewarm_wasted)
    if counters.lends_issued:
        base["lends_issued"] = float(counters.lends_issued)
        base["lend_reuses"] = float(counters.lend_reuses)
    return base


class Counters:
    """The scalar run counters :func:`summary_fold` reads, declared once.

    Written by the pool-side container bookkeeping
    (:class:`~repro.cluster.lifecycle.PoolLifecycle`) and, for crashes,
    stragglers and surrogate audits, by the sequential driver.
    :class:`Telemetry` extends this record; each lane owns a bare one.
    """

    def __init__(self) -> None:
        self.evictions = 0
        self.keep_alive_rejections = 0
        self.ttl_expirations = 0
        self.container_crashes = 0
        self.stragglers = 0
        self.peak_warm_memory_mb = 0.0
        self.peak_live_memory_mb = 0.0
        # Distilled-policy audit counters (folded in from the scheduler by
        # the simulator after a run; see MLCRScheduler.attach_surrogate).
        self.surrogate_audits = 0
        self.surrogate_disagreements = 0
        # Proactive-action counters (pre-warm / container lending).
        # ``prewarm_wasted`` counts pre-warmed containers destroyed before
        # any claim (forecast false positives); ``lend_reuses`` counts lent
        # containers later claimed by the function they were lent to.
        self.prewarms_issued = 0
        self.prewarm_reuses = 0
        self.prewarm_wasted = 0
        self.lends_issued = 0
        self.lend_reuses = 0


class Telemetry(Counters):
    """Mutable per-run metric collector (columnar storage).

    Constructor flags:

    ``queueing_enabled``
        Set by the simulator when a worker concurrency limit is enforced;
        gates the queueing/utilization block of :meth:`summary` so runs
        without admission control keep their historical summary keys.
    ``worker_slots``
        Concurrency slots per worker (the simulator's
        ``worker_concurrency``); normalizes :meth:`worker_utilization` so a
        fully-busy worker reads 1.0 regardless of how many slots it runs.
    """

    def __init__(
        self,
        queueing_enabled: bool = False,
        worker_slots: int = 1,
    ) -> None:
        super().__init__()
        self.queueing_enabled = queueing_enabled
        self.worker_slots = worker_slots
        self.max_queue_depth = 0
        self.worker_busy_s: Dict[int, float] = {}
        self.duration_s = 0.0
        # The startup-latency and queueing-delay folds (read by
        # :meth:`summary` and :meth:`queueing_summary`).
        self._latency = self._fold()
        self._add_latency = fold_adder(self._latency)
        self._queue_delays = self._fold()
        self._add_queue_delay = fold_adder(self._queue_delays)
        # Per-invocation row columns (struct-of-arrays); the latency fold
        # is the startup-latency column.
        column = self._row_column
        self._inv_id = column("q")
        self._fn_ix = column("q")
        self._arrival = column("d")
        self._cid = column("q")
        self._cold = column("b")
        self._match = column("b")
        self._queue_delay = column("d")
        self._worker = column("q")
        self._exec = column("d")
        self._bd_create = column("d")
        self._bd_pull = column("d")
        self._bd_install = column("d")
        self._bd_rinit = column("d")
        self._bd_finit = column("d")
        self._bd_clean = column("d")
        # Interned function-name table.
        self._names: List[str] = []
        self._name_ix: Dict[str, int] = {}
        # Lazily materialized row view (invalidated by length mismatch).
        self._records_view: Optional[List[InvocationRecord]] = None

    def _fold(self) -> Fold:
        """A new latency fold: the exact column."""
        return array("d")

    def _row_column(self, typecode: str):
        """A new per-invocation row column of ``typecode``."""
        return array(typecode)

    # -- interning -----------------------------------------------------------
    def _intern(self, name: str) -> int:
        """Index of ``name`` in the shared string table (inserting it)."""
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self._names)
            self._names.append(name)
        return ix

    # -- recording ----------------------------------------------------------
    def record_invocation_values(
        self,
        invocation_id: int,
        function_name: str,
        arrival_time: float,
        container_id: int,
        cold_start: bool,
        match: int,
        startup_latency_s: float,
        create_s: float,
        pull_s: float,
        install_s: float,
        runtime_init_s: float,
        function_init_s: float,
        clean_s: float,
        execution_time_s: float,
        queue_delay_s: float = 0.0,
        worker_id: int = 0,
    ) -> None:
        """Append one invocation directly into the columns (the fast path).

        Hot callers (the simulator's batch loop) use this to skip building
        an :class:`InvocationRecord` per event; the row view is available
        afterwards through :attr:`records`.
        """
        self._add_latency(startup_latency_s)
        self._inv_id.append(invocation_id)
        ix = self._name_ix.get(function_name)
        self._fn_ix.append(
            ix if ix is not None else self._intern(function_name)
        )
        self._arrival.append(arrival_time)
        self._cid.append(container_id)
        self._cold.append(cold_start)
        self._match.append(match)
        self._queue_delay.append(queue_delay_s)
        self._worker.append(worker_id)
        self._exec.append(execution_time_s)
        self._bd_create.append(create_s)
        self._bd_pull.append(pull_s)
        self._bd_install.append(install_s)
        self._bd_rinit.append(runtime_init_s)
        self._bd_finit.append(function_init_s)
        self._bd_clean.append(clean_s)

    def record_invocation(self, record: InvocationRecord) -> None:
        """Append one per-invocation record (row-oriented compatibility API)."""
        b = record.breakdown
        self.record_invocation_values(
            record.invocation_id,
            record.function_name,
            record.arrival_time,
            record.container_id,
            record.cold_start,
            int(record.match),
            record.startup_latency_s,
            b.create_s,
            b.pull_s,
            b.install_s,
            b.runtime_init_s,
            b.function_init_s,
            b.clean_s,
            record.execution_time_s,
            record.queue_delay_s,
            record.worker_id,
        )

    def record_surrogate_audit(self, audits: int, disagreements: int) -> None:
        """Fold in a run's distilled-policy audit totals.

        ``audits`` decisions were double-checked against the full network;
        ``disagreements`` of them differed (the surrogate's choice still
        served).  Non-zero audits unlock the surrogate block of
        :meth:`summary`, making distillation drift visible in reports.
        """
        self.surrogate_audits += audits
        self.surrogate_disagreements += disagreements

    def record_crash(self) -> None:
        """Count one injected container crash."""
        self.container_crashes += 1

    def record_queueing(self, delay_s: float) -> None:
        """Record one startup's queueing delay (0 when it started at once)."""
        self._add_queue_delay(delay_s)

    def record_queue_depth(self, depth: int) -> None:
        """Track the deepest per-worker startup queue observed."""
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def record_worker_busy(self, worker_id: int, seconds: float) -> None:
        """Accumulate busy (startup + execution) seconds for one worker."""
        self.worker_busy_s[worker_id] = (
            self.worker_busy_s.get(worker_id, 0.0) + seconds
        )

    def record_straggler(self) -> None:
        """Count one injected pull straggler."""
        self.stragglers += 1

    def sample_memory(self, now: float, used_mb: float) -> None:
        """Update the warm-pool memory peak (Fig. 10) with one sample."""
        if used_mb > self.peak_warm_memory_mb:
            self.peak_warm_memory_mb = used_mb

    def sample_live_memory(self, live_mb: float) -> None:
        """Update the peak over all live containers' memory."""
        if live_mb > self.peak_live_memory_mb:
            self.peak_live_memory_mb = live_mb

    # -- row views (lazy materialization) ------------------------------------
    @property
    def records(self) -> List[InvocationRecord]:
        """Per-invocation rows, materialized lazily from the columns.

        The list is cached and rebuilt only when new invocations arrived
        since the last access; treat it as read-only.
        """
        view = self._records_view
        if view is not None and len(view) == len(self._inv_id):
            return view
        names = self._names
        view = [
            InvocationRecord(
                invocation_id=inv,
                function_name=names[fn],
                arrival_time=arr,
                container_id=cid,
                cold_start=bool(cold),
                match=_MATCH_MEMBERS[m],
                startup_latency_s=lat,
                breakdown=StartupBreakdown(
                    create_s=c, pull_s=p, install_s=i,
                    runtime_init_s=r, function_init_s=f, clean_s=cl,
                ),
                execution_time_s=ex,
                queue_delay_s=q,
                worker_id=w,
            )
            for inv, fn, arr, cid, cold, m, lat, q, w, ex, c, p, i, r, f, cl
            in zip(
                self._inv_id, self._fn_ix, self._arrival, self._cid,
                self._cold, self._match, self._latency, self._queue_delay,
                self._worker, self._exec, self._bd_create, self._bd_pull,
                self._bd_install, self._bd_rinit, self._bd_finit,
                self._bd_clean,
            )
        ]
        self._records_view = view
        return view

    def invocation_columns(self) -> InvocationColumns:
        """The scalar per-invocation columns as one named view.

        Used by golden-trace recording and the columnar IPC packer to read
        rows without materializing :class:`InvocationRecord` objects.
        """
        names = self._names
        return InvocationColumns(
            invocation_id=self._inv_id,
            function_name=[names[i] for i in self._fn_ix],
            arrival_time=self._arrival,
            container_id=self._cid,
            cold_start=self._cold,
            match=self._match,
            startup_latency_s=self._latency,
            queue_delay_s=self._queue_delay,
            worker_id=self._worker,
            execution_time_s=self._exec,
        )

    # -- aggregates ---------------------------------------------------------
    @property
    def n_invocations(self) -> int:
        return fold_totals(self._latency)[0]

    @property
    def total_startup_latency_s(self) -> float:
        return fold_totals(self._latency)[1]

    @property
    def mean_startup_latency_s(self) -> float:
        n, total = fold_totals(self._latency)
        return total / n if n else 0.0

    @property
    def cold_starts(self) -> int:
        return int(sum(self._cold))

    @property
    def warm_starts(self) -> int:
        return self.n_invocations - self.cold_starts

    def latencies(self) -> np.ndarray:
        """Per-invocation startup latencies in arrival order."""
        return np.array(self._latency, dtype=np.float64)

    def cumulative_latency(self) -> np.ndarray:
        """Cumulative startup latency vs arrival index (Fig. 9 series)."""
        return np.cumsum(self.latencies())

    def cumulative_cold_starts(self) -> np.ndarray:
        """Cumulative cold-start counts vs arrival index."""
        return np.cumsum(np.array(self._cold, dtype=np.int64))

    def match_histogram(self) -> Dict[MatchLevel, int]:
        """How many starts happened at each match level."""
        counts = [0] * len(_MATCH_MEMBERS)
        for m in self._match:
            counts[m] += 1
        return {lvl: counts[int(lvl)] for lvl in _MATCH_MEMBERS}

    @property
    def total_queueing_s(self) -> float:
        """Total time startups spent queued for worker slots."""
        return fold_totals(self._queue_delays)[1]

    @property
    def queued_starts(self) -> int:
        """How many startups had to wait for a worker slot."""
        return sum(1 for d in self._queue_delays if d > 0)

    def worker_utilization(self) -> Dict[int, float]:
        """Busy fraction per worker over the run's duration.

        Busy time is accumulated by :meth:`record_worker_busy` (startup
        plus execution); the denominator is :attr:`duration_s` (set by the
        simulator to the final simulation time at :meth:`finish`) times
        :attr:`worker_slots`, so a worker saturating all of its concurrency
        slots for the whole run reads 1.0.  Empty when admission control
        never recorded busy time.
        """
        if self.duration_s <= 0:
            return {w: 0.0 for w in self.worker_busy_s}
        denom = self.duration_s * max(1, self.worker_slots)
        return {
            w: busy / denom
            for w, busy in sorted(self.worker_busy_s.items())
        }

    def queueing_summary(self) -> Dict[str, float]:
        """Scalar queueing/utilization block (appended to :meth:`summary`
        when a worker concurrency limit was enforced)."""
        total, mean, p95 = self._queueing_stats()
        utilization = list(self.worker_utilization().values())
        return {
            "total_queueing_s": total,
            "mean_queueing_s": mean,
            "p95_queueing_s": p95,
            "queued_starts": float(self.queued_starts),
            "max_queue_depth": float(self.max_queue_depth),
            "mean_worker_utilization": (
                float(np.mean(utilization)) if utilization else 0.0
            ),
            "max_worker_utilization": (
                float(np.max(utilization)) if utilization else 0.0
            ),
        }

    def _queueing_stats(self) -> Tuple[float, float, float]:
        """``(total, mean, p95)`` of the queueing delays (numpy's, zeros
        when empty)."""
        delays = np.array(self._queue_delays, dtype=np.float64)
        if not delays.size:
            return 0.0, 0.0, 0.0
        return (float(delays.sum()), float(delays.mean()),
                float(np.percentile(delays, 95)))

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by experiment reports (:func:`summary_fold`).

        One pass over the columns; the queueing/utilization block is only
        present when the run enforced a worker concurrency limit, so
        summaries of runs without admission control are unchanged from the
        pre-queueing simulator.
        """
        return summary_fold(
            self, *latency_stats(self._latency), self.cold_starts,
            self.queueing_summary() if self.queueing_enabled else None,
        )


class BoundedTelemetry(Telemetry):
    """O(1)-memory metric collector for streaming million-invocation replays.

    The same collector as :class:`Telemetry` with the bounded fold forms:
    the startup-latency and queueing-delay folds are
    :class:`~repro.cluster.sketches.QuantileSketch` sketches, and the row
    columns keep nothing but the cold-start and match-level tallies its
    two count aggregates read, so memory stays constant while a
    10M-invocation replay streams through.  The percentile summary cells
    (``p50_startup_s``, ``p95_startup_s``, ``p95_queueing_s``) are sketch
    estimates within the sketch's relative accuracy; every other cell is
    bit-exact.

    Row-level views are structurally unavailable: :attr:`records`,
    :meth:`invocation_columns`, :meth:`latencies` and friends raise
    ``RuntimeError`` (they are inherently O(#invocations)).
    """

    def __init__(
        self,
        queueing_enabled: bool = False,
        worker_slots: int = 1,
        relative_accuracy: float = 0.01,
    ) -> None:
        self.relative_accuracy = relative_accuracy
        super().__init__(
            queueing_enabled=queueing_enabled,
            worker_slots=worker_slots,
        )
        # The two row columns the exact aggregates count keep their tallies.
        self._cold = _Tally([0, 0])
        self._match = _Tally([0] * len(_MATCH_MEMBERS))

    def _fold(self) -> Fold:
        """A new latency fold: the bounded sketch."""
        return QuantileSketch(self.relative_accuracy)

    def _row_column(self, typecode: str):
        """A row column that keeps nothing."""
        return _DISCARD

    # -- aggregates whose exact form reads a row column -----------------------
    @property
    def cold_starts(self) -> int:
        """Exact cold-start count (the cold column's tally)."""
        return self._cold[1]

    def match_histogram(self) -> Dict[MatchLevel, int]:
        """Exact per-match-level start counts (the match column's tally)."""
        return {lvl: self._match[int(lvl)] for lvl in _MATCH_MEMBERS}

    @property
    def queued_starts(self) -> int:
        """Exact count of startups that waited for a worker slot (the
        sketch counts zero delays exactly)."""
        return self._queue_delays.count - self._queue_delays.zero_count

    def _queueing_stats(self) -> Tuple[float, float, float]:
        """``(total, mean, p95)`` off the queue sketch: the running total
        and mean are exact, ``p95`` is a sketch estimate."""
        sketch = self._queue_delays
        return sketch.sum, sketch.mean, sketch.percentile(95)

    # -- row views: structurally unavailable ---------------------------------
    def _unavailable(self, what: str) -> RuntimeError:
        """Build the error raised by row-level accessors."""
        return RuntimeError(
            f"{what} is unavailable under BoundedTelemetry: per-invocation "
            "rows are not retained in bounded (streaming) mode"
        )

    @property
    def records(self) -> List[InvocationRecord]:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("records")

    def invocation_columns(self) -> InvocationColumns:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("invocation_columns()")

    def latencies(self) -> np.ndarray:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("latencies()")

    def cumulative_latency(self) -> np.ndarray:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("cumulative_latency()")

    def cumulative_cold_starts(self) -> np.ndarray:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("cumulative_cold_starts()")


#: The row "column" of :class:`BoundedTelemetry`: appending discards.
_DISCARD = deque(maxlen=0)


class _Tally(list):
    """A bounded row column of small non-negative integers: item ``v``
    counts how often ``v`` was appended."""

    def append(self, value: int) -> None:
        self[value] += 1
