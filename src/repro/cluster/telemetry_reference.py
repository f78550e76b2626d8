"""The pre-columnar, row-oriented telemetry collector (reference only).

This is the list-of-objects implementation :class:`repro.cluster.telemetry.
Telemetry` replaced.  It is kept, renamed and trimmed to the surface the
columnar collector still has, as the behavioural reference for two
consumers:

* the hypothesis parity suite (``tests/test_telemetry_parity.py``) drives
  both implementations with identical random event streams and asserts
  identical summaries, aggregates and golden-trace serializations;
* ``benchmarks/bench_telemetry_ingest.py`` measures the columnar ingest
  speedup against this implementation (the acceptance floor is 2x).

Nothing in the production pipeline imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cluster.telemetry import InvocationRecord
from repro.containers.costmodel import StartupBreakdown
from repro.containers.matching import MatchLevel


@dataclass
class LegacyTelemetry:
    """Row-oriented per-run metric collector (one object per event)."""

    records: List[InvocationRecord] = field(default_factory=list)
    evictions: int = 0
    keep_alive_rejections: int = 0
    ttl_expirations: int = 0
    container_crashes: int = 0
    stragglers: int = 0
    peak_warm_memory_mb: float = 0.0
    peak_live_memory_mb: float = 0.0
    queueing_enabled: bool = False
    queue_delays: List[float] = field(default_factory=list)
    max_queue_depth: int = 0
    worker_busy_s: Dict[int, float] = field(default_factory=dict)
    duration_s: float = 0.0
    worker_slots: int = 1

    # -- recording ----------------------------------------------------------
    def record_invocation(self, record: InvocationRecord) -> None:
        """Append one per-invocation record."""
        self.records.append(record)

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
        """Columnar-compatible ingest entry point: builds the row object.

        Mirrors :meth:`repro.cluster.telemetry.Telemetry.
        record_invocation_values` so the parity tests and the ingest
        benchmark can drive both implementations through one call shape;
        the legacy cost -- constructing an :class:`InvocationRecord` per
        event -- is exactly what the columnar path eliminates.
        """
        self.records.append(InvocationRecord(
            invocation_id=invocation_id,
            function_name=function_name,
            arrival_time=arrival_time,
            container_id=container_id,
            cold_start=bool(cold_start),
            match=MatchLevel(match),
            startup_latency_s=startup_latency_s,
            breakdown=breakdown,
            execution_time_s=execution_time_s,
            queue_delay_s=queue_delay_s,
            worker_id=worker_id,
        ))

    def record_crash(self) -> None:
        """Count one injected container crash."""
        self.container_crashes += 1

    def record_queueing(self, delay_s: float) -> None:
        """Record one startup's queueing delay (0 when it started at once)."""
        self.queue_delays.append(delay_s)

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
        """Update the warm-pool memory peak with one sample."""
        self.peak_warm_memory_mb = max(self.peak_warm_memory_mb, used_mb)

    def sample_live_memory(self, live_mb: float) -> None:
        """Update the peak over all live containers' memory."""
        self.peak_live_memory_mb = max(self.peak_live_memory_mb, live_mb)

    # -- aggregates ---------------------------------------------------------
    @property
    def n_invocations(self) -> int:
        return len(self.records)

    @property
    def total_startup_latency_s(self) -> float:
        return float(sum(r.startup_latency_s for r in self.records))

    @property
    def mean_startup_latency_s(self) -> float:
        if not self.records:
            return 0.0
        return self.total_startup_latency_s / len(self.records)

    @property
    def cold_starts(self) -> int:
        return sum(1 for r in self.records if r.cold_start)

    @property
    def warm_starts(self) -> int:
        return self.n_invocations - self.cold_starts

    def latencies(self) -> np.ndarray:
        """Per-invocation startup latencies in arrival order."""
        return np.array([r.startup_latency_s for r in self.records],
                        dtype=np.float64)

    def cumulative_latency(self) -> np.ndarray:
        """Cumulative startup latency vs arrival index (Fig. 9 series)."""
        return np.cumsum(self.latencies())

    def cumulative_cold_starts(self) -> np.ndarray:
        """Cumulative cold-start counts vs arrival index."""
        flags = np.array([r.cold_start for r in self.records], dtype=np.int64)
        return np.cumsum(flags)

    def match_histogram(self) -> Dict[MatchLevel, int]:
        """How many starts happened at each match level."""
        hist: Dict[MatchLevel, int] = {lvl: 0 for lvl in MatchLevel}
        for r in self.records:
            hist[r.match] += 1
        return hist

    @property
    def total_queueing_s(self) -> float:
        """Total time startups spent queued for worker slots."""
        return float(sum(self.queue_delays))

    @property
    def queued_starts(self) -> int:
        """How many startups had to wait for a worker slot."""
        return sum(1 for d in self.queue_delays if d > 0)

    def worker_utilization(self) -> Dict[int, float]:
        """Busy fraction per worker over the run's duration."""
        if self.duration_s <= 0:
            return {w: 0.0 for w in self.worker_busy_s}
        denom = self.duration_s * max(1, self.worker_slots)
        return {
            w: busy / denom
            for w, busy in sorted(self.worker_busy_s.items())
        }

    def queueing_summary(self) -> Dict[str, float]:
        """Scalar queueing/utilization block of :meth:`summary`."""
        delays = np.array(self.queue_delays, dtype=np.float64)
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

    def summary(self) -> Dict[str, float]:
        """Scalar summary used by experiment reports."""
        lat = self.latencies()
        base = {
            "invocations": float(self.n_invocations),
            "total_startup_s": self.total_startup_latency_s,
            "mean_startup_s": self.mean_startup_latency_s,
            "p50_startup_s": float(np.median(lat)) if lat.size else 0.0,
            "p95_startup_s": float(np.percentile(lat, 95)) if lat.size else 0.0,
            "cold_starts": float(self.cold_starts),
            "warm_starts": float(self.warm_starts),
            "evictions": float(self.evictions),
            "keep_alive_rejections": float(self.keep_alive_rejections),
            "ttl_expirations": float(self.ttl_expirations),
            "peak_warm_memory_mb": self.peak_warm_memory_mb,
            "peak_live_memory_mb": self.peak_live_memory_mb,
            "container_crashes": float(self.container_crashes),
            "stragglers": float(self.stragglers),
        }
        if self.queueing_enabled:
            base.update(self.queueing_summary())
        return base
