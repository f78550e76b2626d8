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
row-oriented views -- :class:`InvocationRecord` and :class:`TraceEvent` --
are materialized lazily (and cached) by the :attr:`Telemetry.records` /
:attr:`Telemetry.trace` properties, so report rendering, golden-trace
record/replay and the verification monitors keep byte-identical output.

The pre-columnar list implementation survives as
:class:`repro.cluster.telemetry_reference.LegacyTelemetry`; the hypothesis
parity suite (``tests/test_telemetry_parity.py``) drives both with random
event streams and asserts identical summaries and trace bytes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class TraceEvent:
    """One structured simulator event (emitted when tracing is enabled)."""

    time: float
    kind: str
    container_id: Optional[int] = None
    function: Optional[str] = None
    detail: str = ""

    def to_json(self) -> str:
        """Serialize as one JSON line."""
        import json

        return json.dumps({
            "t": round(self.time, 6),
            "kind": self.kind,
            "container": self.container_id,
            "function": self.function,
            "detail": self.detail,
        })


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


def column_percentiles(lat: np.ndarray) -> Tuple[float, float]:
    """Exact ``(p50, p95)`` of a latency column (zeros when empty)."""
    if not lat.size:
        return 0.0, 0.0
    return float(np.median(lat)), float(np.percentile(lat, 95))


def _prewarm_block(counters) -> Dict[str, float]:
    """Pre-warm accounting block of :func:`summary_fold`."""
    return {
        "prewarms_issued": float(counters.prewarms_issued),
        "prewarm_reuses": float(counters.prewarm_reuses),
        "prewarm_wasted": float(counters.prewarm_wasted),
    }


def _lending_block(counters) -> Dict[str, float]:
    """Container-lending block of :func:`summary_fold`."""
    return {
        "lends_issued": float(counters.lends_issued),
        "lend_reuses": float(counters.lend_reuses),
    }


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
    lane's own record.  The latency statistics and the cold-start count
    come from the caller, which owns how they are accumulated (a latency
    column, or a running total plus a sketch).  The 14 base keys are
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
        base.update(_prewarm_block(counters))
    if counters.lends_issued:
        base.update(_lending_block(counters))
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
        self.prewarms_issued = 0
        self.prewarm_reuses = 0
        self.prewarm_wasted = 0
        self.lends_issued = 0
        self.lend_reuses = 0


class Telemetry(Counters):
    """Mutable per-run metric collector (columnar storage).

    Constructor flags:

    ``trace_enabled``
        Record structured :class:`TraceEvent` rows (off by default; the
        disabled :meth:`record_event` path returns before any allocation).
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
        trace_enabled: bool = False,
        queueing_enabled: bool = False,
        worker_slots: int = 1,
    ) -> None:
        super().__init__()
        self.trace_enabled = trace_enabled
        self.queueing_enabled = queueing_enabled
        self.worker_slots = worker_slots
        self.max_queue_depth = 0
        self.worker_busy_s: Dict[int, float] = {}
        self.duration_s = 0.0
        # Per-invocation columns (struct-of-arrays).
        self._inv_id = array("q")
        self._fn_ix = array("q")
        self._arrival = array("d")
        self._cid = array("q")
        self._cold = array("b")
        self._match = array("b")
        self._latency = array("d")
        self._queue_delay = array("d")
        self._worker = array("q")
        self._exec = array("d")
        self._bd_create = array("d")
        self._bd_pull = array("d")
        self._bd_install = array("d")
        self._bd_rinit = array("d")
        self._bd_finit = array("d")
        self._bd_clean = array("d")
        # Interned string table shared by function names and trace kinds.
        self._names: List[str] = []
        self._name_ix: Dict[str, int] = {}
        # Memory-timeline columns (deduped on ingest: interior points of a
        # constant-value run are collapsed, keeping first and last).
        self._mem_t = array("d")
        self._mem_mb = array("d")
        # Queueing-delay column.
        self._queue_delays = array("d")
        # Trace-event columns (-1 encodes None for container/function).
        self._tr_time = array("d")
        self._tr_kind = array("q")
        self._tr_cid = array("q")
        self._tr_fn = array("q")
        self._tr_detail: List[str] = []
        # Lazily materialized row views (invalidated by length mismatch).
        self._records_view: Optional[List[InvocationRecord]] = None
        self._trace_view: Optional[List[TraceEvent]] = None

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
        self._inv_id.append(invocation_id)
        self._fn_ix.append(self._intern(function_name))
        self._arrival.append(arrival_time)
        self._cid.append(container_id)
        self._cold.append(cold_start)
        self._match.append(match)
        self._latency.append(startup_latency_s)
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

    def record_event(
        self,
        time: float,
        kind: str,
        container_id: Optional[int] = None,
        function: Optional[str] = None,
        detail: str = "",
    ) -> None:
        """Append a structured trace event (no-op unless tracing is on).

        The disabled path returns before any allocation.  Hot callers
        (e.g. the simulator's per-invocation events) additionally check
        :attr:`trace_enabled` *before* formatting ``detail`` strings, so a
        non-traced run never pays for event formatting at all.
        """
        if not self.trace_enabled:
            return
        self._tr_time.append(time)
        self._tr_kind.append(self._intern(kind))
        self._tr_cid.append(-1 if container_id is None else container_id)
        self._tr_fn.append(-1 if function is None else self._intern(function))
        self._tr_detail.append(detail)

    def trace_to_jsonl(self, path) -> "object":
        """Write the trace as JSON lines; returns the path."""
        from pathlib import Path

        path = Path(path)
        path.write_text("\n".join(e.to_json() for e in self.trace) + "\n")
        return path

    def record_crash(self) -> None:
        """Count one injected container crash."""
        self.container_crashes += 1

    def record_queueing(self, delay_s: float) -> None:
        """Record one startup's queueing delay (0 when it started at once)."""
        self._queue_delays.append(delay_s)

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
        """Record a warm-pool memory sample and update the peak.

        Runs of identical ``used_mb`` values are deduplicated on ingest:
        only the first and last sample of a constant run are kept (the
        last one slides forward in time), which shrinks long-run timelines
        without changing any piecewise-constant plot drawn from them.
        """
        mb = self._mem_mb
        if len(mb) >= 2 and mb[-1] == used_mb and mb[-2] == used_mb:
            self._mem_t[-1] = now
        else:
            self._mem_t.append(now)
            mb.append(used_mb)
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

    @property
    def trace(self) -> List[TraceEvent]:
        """Structured trace events, materialized lazily from the columns."""
        view = self._trace_view
        if view is not None and len(view) == len(self._tr_time):
            return view
        names = self._names
        view = [
            TraceEvent(
                time=t,
                kind=names[k],
                container_id=None if cid < 0 else cid,
                function=None if fn < 0 else names[fn],
                detail=detail,
            )
            for t, k, cid, fn, detail in zip(
                self._tr_time, self._tr_kind, self._tr_cid,
                self._tr_fn, self._tr_detail,
            )
        ]
        self._trace_view = view
        return view

    @property
    def memory_timeline(self) -> List[Tuple[float, float]]:
        """Warm-pool ``(time, used_mb)`` samples (deduped constant runs)."""
        return list(zip(self._mem_t, self._mem_mb))

    @property
    def queue_delays(self) -> Sequence[float]:
        """Per-startup queueing delays, in admission order."""
        return self._queue_delays

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
        return len(self._inv_id)

    @property
    def total_startup_latency_s(self) -> float:
        return float(sum(self._latency))

    @property
    def mean_startup_latency_s(self) -> float:
        n = len(self._latency)
        if not n:
            return 0.0
        return self.total_startup_latency_s / n

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
        return float(sum(self._queue_delays))

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
        delays = np.array(self._queue_delays, dtype=np.float64)
        utilization = list(self.worker_utilization().values())
        return {
            "total_queueing_s": float(delays.sum()) if delays.size else 0.0,
            "mean_queueing_s": float(delays.mean()) if delays.size else 0.0,
            "p95_queueing_s": (
                float(np.percentile(delays, 95)) if delays.size else 0.0
            ),
            "queued_starts": float(self.queued_starts),
            "max_queue_depth": float(self.max_queue_depth),
            "mean_worker_utilization": (
                float(np.mean(utilization)) if utilization else 0.0
            ),
            "max_worker_utilization": (
                float(np.max(utilization)) if utilization else 0.0
            ),
        }

    def per_function_mean_latency(self) -> Dict[str, float]:
        """Mean startup latency per function name."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for ix, latency in zip(self._fn_ix, self._latency):
            sums[ix] = sums.get(ix, 0.0) + latency
            counts[ix] = counts.get(ix, 0) + 1
        names = self._names
        return {names[ix]: sums[ix] / counts[ix] for ix in sums}

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by experiment reports (:func:`summary_fold`).

        One pass over the columns; the queueing/utilization block is only
        present when the run enforced a worker concurrency limit, so
        summaries of runs without admission control are unchanged from the
        pre-queueing simulator.
        """
        p50, p95 = column_percentiles(self.latencies())
        return summary_fold(
            self, self.n_invocations, self.total_startup_latency_s, p50, p95,
            self.cold_starts,
            self.queueing_summary() if self.queueing_enabled else None,
        )

    def prewarm_summary(self) -> Dict[str, float]:
        """Pre-warm accounting block (present only when pre-warms ran).

        ``prewarm_wasted`` counts pre-warmed containers destroyed before
        any invocation claimed them -- the forecaster's false positives.
        """
        return _prewarm_block(self)

    def lending_summary(self) -> Dict[str, float]:
        """Container-lending block (present only when lends ran).

        ``lend_reuses`` counts lent containers later claimed by the
        function they were re-specialized for -- the lending hit count.
        """
        return _lending_block(self)


class BoundedTelemetry(Telemetry):
    """O(1)-memory metric collector for streaming million-invocation replays.

    Same recording interface and :meth:`summary` key set as
    :class:`Telemetry`, but per-invocation state is exact counters (counts,
    sums, match histogram, peaks) plus :class:`~repro.cluster.sketches.\
QuantileSketch` sketches for the latency/queueing percentiles, so memory
    stays constant while a 10M-invocation replay streams through.  The
    percentile summary cells (``p50_startup_s``, ``p95_startup_s``,
    ``p95_queueing_s``) are sketch estimates within the sketch's relative
    accuracy; every other cell is bit-exact.

    Row-level views are structurally unavailable: :attr:`records`,
    :meth:`invocation_columns`, :meth:`latencies` and friends raise
    ``RuntimeError``, and structured tracing cannot be enabled (both are
    inherently O(#invocations)).
    """

    def __init__(
        self,
        trace_enabled: bool = False,
        queueing_enabled: bool = False,
        worker_slots: int = 1,
        relative_accuracy: float = 0.01,
    ) -> None:
        if trace_enabled:
            raise ValueError(
                "structured tracing is O(#invocations); "
                "use the unbounded Telemetry for traced runs"
            )
        super().__init__(
            trace_enabled=False,
            queueing_enabled=queueing_enabled,
            worker_slots=worker_slots,
        )
        self.relative_accuracy = relative_accuracy
        self._n = 0
        self._n_cold = 0
        self._lat_total = 0.0
        self._match_counts = [0] * len(_MATCH_MEMBERS)
        self._lat_sketch = QuantileSketch(relative_accuracy)
        self._queue_sketch = QuantileSketch(relative_accuracy)
        self._queue_total = 0.0
        self._n_queued = 0

    # -- recording (bounded state only) --------------------------------------
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
        """Fold one invocation into the counters and the latency sketch."""
        self._n += 1
        self._n_cold += cold_start
        self._lat_total += startup_latency_s
        self._match_counts[match] += 1
        self._lat_sketch.insert(startup_latency_s)

    def record_queueing(self, delay_s: float) -> None:
        """Fold one queueing delay into the totals and the queue sketch."""
        self._queue_total += delay_s
        if delay_s > 0:
            self._n_queued += 1
        self._queue_sketch.insert(delay_s)

    def sample_memory(self, now: float, used_mb: float) -> None:
        """Track the warm-memory peak only (no O(#changes) timeline)."""
        if used_mb > self.peak_warm_memory_mb:
            self.peak_warm_memory_mb = used_mb

    # -- aggregates (exact, from counters) -----------------------------------
    @property
    def n_invocations(self) -> int:
        """Exact invocation count."""
        return self._n

    @property
    def total_startup_latency_s(self) -> float:
        """Exact total startup latency."""
        return self._lat_total

    @property
    def mean_startup_latency_s(self) -> float:
        """Exact mean startup latency."""
        return self._lat_total / self._n if self._n else 0.0

    @property
    def cold_starts(self) -> int:
        """Exact cold-start count."""
        return self._n_cold

    def match_histogram(self) -> Dict[MatchLevel, int]:
        """Exact per-match-level start counts."""
        return {lvl: self._match_counts[int(lvl)] for lvl in _MATCH_MEMBERS}

    @property
    def total_queueing_s(self) -> float:
        """Exact total queueing delay."""
        return self._queue_total

    @property
    def queued_starts(self) -> int:
        """Exact count of startups that waited for a worker slot."""
        return self._n_queued

    def queueing_summary(self) -> Dict[str, float]:
        """Queueing/utilization block; ``p95_queueing_s`` is a sketch
        estimate, everything else exact."""
        utilization = list(self.worker_utilization().values())
        return {
            "total_queueing_s": self._queue_total,
            "mean_queueing_s": self._queue_sketch.mean,
            "p95_queueing_s": self._queue_sketch.percentile(95),
            "queued_starts": float(self._n_queued),
            "max_queue_depth": float(self.max_queue_depth),
            "mean_worker_utilization": (
                float(np.mean(utilization)) if utilization else 0.0
            ),
            "max_worker_utilization": (
                float(np.max(utilization)) if utilization else 0.0
            ),
        }

    def summary(self) -> Dict[str, float]:
        """Same key set as :meth:`Telemetry.summary`; the two startup
        percentiles are sketch estimates, every other cell exact."""
        return summary_fold(
            self, self._n, self._lat_total,
            self._lat_sketch.percentile(50), self._lat_sketch.percentile(95),
            self._n_cold,
            self.queueing_summary() if self.queueing_enabled else None,
        )

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

    def per_function_mean_latency(self) -> Dict[str, float]:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("per_function_mean_latency()")

    @property
    def queue_delays(self) -> Sequence[float]:
        """Unavailable in bounded mode (raises ``RuntimeError``)."""
        raise self._unavailable("queue_delays")
