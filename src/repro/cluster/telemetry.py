"""Telemetry: everything the evaluation section measures.

The paper's figures need, per run: total/average startup latency, number of
cold starts, cumulative latency trajectories (Fig. 9), peak warm-pool memory
and eviction counts (Fig. 10), plus per-invocation breakdowns (Fig. 1).

Storage is *row-appended, column-read*: recording an invocation is one
``list.extend`` of its eleven fields onto a flat row list (no Python object
per invocation, no per-field call), and the startup breakdown is one
reference (the cost model memoizes breakdowns).  The typed columns --
``array('q')`` / ``array('d')`` / ``array('b')``, one per scalar field of
:class:`InvocationColumns` -- are materialized lazily from the rows by
stride slicing, each on its first read after an append, so the
aggregates (:meth:`Telemetry.summary`, percentiles, cumulative series)
build just the fields they read.  The historical row-oriented view --
:class:`InvocationRecord` -- is materialized the same way (and cached) by
the :attr:`Telemetry.records` property for the callers that still compare
whole rows (the batch-vs-incremental oracle).  A field value a column's
typecode cannot hold therefore raises when the columns are read, not when
the row is recorded.

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
event streams and asserts identical summaries, aggregates and columns
(typecodes included).
"""

from __future__ import annotations

from array import array
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
    """The telemetry's per-invocation scalar fields, one column each.

    Numeric fields are ``array`` columns (typecodes in
    :data:`COLUMN_TYPECODES`) built from the recorded rows and shared
    with later reads until the next append (do not mutate);
    ``function_name`` is a list of the recorded name references.
    Consumers that only need scalar fields (golden-trace recording,
    columnar IPC packing) iterate these directly instead of building one
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


#: The ``array`` typecode of each :class:`InvocationColumns` field, in
#: field order (``None``: a list of references).
COLUMN_TYPECODES: Tuple[Optional[str], ...] = (
    "q", None, "d", "q", "b", "b", "d", "d", "q", "d",
)

#: Values per recorded row: the :class:`InvocationColumns` fields in
#: order, then the startup breakdown.
_ROW_WIDTH = len(COLUMN_TYPECODES) + 1

#: Offset of each :class:`InvocationColumns` field within a row.
_OFFSET = {name: i for i, name in enumerate(InvocationColumns._fields)}

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
    """Mutable per-run metric collector (rows appended, columns read).

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
        # The queueing-delay fold (read by :meth:`queueing_summary`).
        self._queue_delays = self._fold()
        self._add_queue_delay = fold_adder(self._queue_delays)
        # Per-invocation rows, flat: _ROW_WIDTH values per invocation, in
        # InvocationColumns order, then the breakdown.  The startup
        # latency fold is the materialized latency column.
        self._rows: list = []
        # Lazily materialized columns by field, valid while the row list
        # has _columns_len values, and the row view.
        self._columns: Dict[str, Sequence] = {}
        self._columns_len = 0
        self._records_view: Optional[List[InvocationRecord]] = None

    def _fold(self) -> Fold:
        """A new latency fold: the exact column."""
        return array("d")

    def _column(self, field: str) -> Sequence:
        """The column of one :class:`InvocationColumns` field.

        Built from the rows by stride slicing (an ``array`` of the field's
        typecode) on the first read after an append, then shared, so an
        aggregate materializes only the fields it reads.
        """
        rows = self._rows
        if len(rows) != self._columns_len:
            self._columns = {}
            self._columns_len = len(rows)
        column = self._columns.get(field)
        if column is None:
            offset = _OFFSET[field]
            typecode = COLUMN_TYPECODES[offset]
            column = rows[offset::_ROW_WIDTH]
            if typecode is not None:
                column = array(typecode, column)
            self._columns[field] = column
        return column

    def _latency_fold(self) -> Fold:
        """The startup-latency fold: the exact latency column."""
        return self._column("startup_latency_s")

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
        breakdown: StartupBreakdown,
        execution_time_s: float,
        queue_delay_s: float = 0.0,
        worker_id: int = 0,
    ) -> None:
        """Append one invocation as one row (the fast path).

        Hot callers (the simulator's batch loop) use this to skip building
        an :class:`InvocationRecord` per event; the columns and the row
        view are available afterwards through :meth:`invocation_columns`
        and :attr:`records`.  ``breakdown`` is stored by reference (it is
        immutable; the cost model hands out memoized ones).
        """
        self._rows.extend((
            invocation_id, function_name, arrival_time, container_id,
            cold_start, match, startup_latency_s, queue_delay_s, worker_id,
            execution_time_s, breakdown,
        ))

    def record_invocation(self, record: InvocationRecord) -> None:
        """Append one per-invocation record (row-oriented compatibility API)."""
        self.record_invocation_values(
            record.invocation_id,
            record.function_name,
            record.arrival_time,
            record.container_id,
            record.cold_start,
            int(record.match),
            record.startup_latency_s,
            record.breakdown,
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
        if view is not None and len(view) == self.n_invocations:
            return view
        cols = self.invocation_columns()
        view = [
            InvocationRecord(
                invocation_id=inv,
                function_name=fn,
                arrival_time=arr,
                container_id=cid,
                cold_start=bool(cold),
                match=_MATCH_MEMBERS[m],
                startup_latency_s=lat,
                breakdown=breakdown,
                execution_time_s=ex,
                queue_delay_s=q,
                worker_id=w,
            )
            for inv, fn, arr, cid, cold, m, lat, q, w, ex, breakdown
            in zip(*cols, self._rows[_ROW_WIDTH - 1::_ROW_WIDTH])
        ]
        self._records_view = view
        return view

    def invocation_columns(self) -> InvocationColumns:
        """The scalar per-invocation columns as one named view.

        Used by golden-trace recording and the columnar IPC packer to read
        rows without materializing :class:`InvocationRecord` objects.  The
        columns are built from the rows on the first read after an append
        and shared by later reads; treat them as read-only.
        """
        return InvocationColumns._make(
            self._column(field) for field in InvocationColumns._fields
        )

    # -- aggregates ---------------------------------------------------------
    @property
    def n_invocations(self) -> int:
        return len(self._rows) // _ROW_WIDTH

    @property
    def total_startup_latency_s(self) -> float:
        return fold_totals(self._latency_fold())[1]

    @property
    def mean_startup_latency_s(self) -> float:
        n, total = fold_totals(self._latency_fold())
        return total / n if n else 0.0

    @property
    def cold_starts(self) -> int:
        return int(sum(self._column("cold_start")))

    @property
    def warm_starts(self) -> int:
        return self.n_invocations - self.cold_starts

    def latencies(self) -> np.ndarray:
        """Per-invocation startup latencies in arrival order."""
        return np.array(self._latency_fold(), dtype=np.float64)

    def cumulative_latency(self) -> np.ndarray:
        """Cumulative startup latency vs arrival index (Fig. 9 series)."""
        return np.cumsum(self.latencies())

    def cumulative_cold_starts(self) -> np.ndarray:
        """Cumulative cold-start counts vs arrival index."""
        return np.cumsum(np.array(self._column("cold_start"),
                                  dtype=np.int64))

    def match_histogram(self) -> Dict[MatchLevel, int]:
        """How many starts happened at each match level."""
        counts = [0] * len(_MATCH_MEMBERS)
        for m in self._column("match"):
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

        Reads the latency and cold-start fields; the queueing/utilization
        block is only present when the run enforced a worker concurrency
        limit, so summaries of runs without admission control are
        unchanged from the pre-queueing simulator.
        """
        return summary_fold(
            self, *latency_stats(self._latency_fold()), self.cold_starts,
            self.queueing_summary() if self.queueing_enabled else None,
        )


class BoundedTelemetry(Telemetry):
    """O(1)-memory metric collector for streaming million-invocation replays.

    The same collector as :class:`Telemetry` with the bounded fold forms:
    the startup-latency and queueing-delay folds are
    :class:`~repro.cluster.sketches.QuantileSketch` sketches, and a
    recorded row leaves nothing but its latency in the sketch and its
    cold flag and match level in the two tallies the exact count
    aggregates read (the row list stays empty), so memory stays constant
    while a 10M-invocation replay streams through.  The percentile
    summary cells (``p50_startup_s``, ``p95_startup_s``,
    ``p95_queueing_s``) are sketch
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
        self._latency = self._fold()
        self._add_latency = fold_adder(self._latency)
        # Starts per cold flag (index 1 counts the cold ones) and per
        # match level.
        self._cold_tally = [0, 0]
        self._match_tally = [0] * len(_MATCH_MEMBERS)

    def _fold(self) -> Fold:
        """A new latency fold: the bounded sketch."""
        return QuantileSketch(self.relative_accuracy)

    def _latency_fold(self) -> Fold:
        """The startup-latency fold: the sketch."""
        return self._latency

    def record_invocation_values(
        self,
        invocation_id: int,
        function_name: str,
        arrival_time: float,
        container_id: int,
        cold_start: bool,
        match: int,
        startup_latency_s: float,
        breakdown: StartupBreakdown,
        execution_time_s: float,
        queue_delay_s: float = 0.0,
        worker_id: int = 0,
    ) -> None:
        """Fold one invocation: its startup latency into the sketch, its
        cold flag and match level into their tallies.  The rest of the
        row is not kept."""
        self._add_latency(startup_latency_s)
        self._cold_tally[cold_start] += 1
        self._match_tally[match] += 1

    # -- aggregates whose exact form reads a row column -----------------------
    @property
    def n_invocations(self) -> int:
        """Exact invocation count (the sketch's)."""
        return self._latency.count

    @property
    def cold_starts(self) -> int:
        """Exact cold-start count (the cold flag's tally)."""
        return self._cold_tally[1]

    def match_histogram(self) -> Dict[MatchLevel, int]:
        """Exact per-match-level start counts (the match level's tally)."""
        return {lvl: self._match_tally[int(lvl)] for lvl in _MATCH_MEMBERS}

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

