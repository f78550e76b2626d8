"""Data-plane placement: worker selection and startup admission.

The paper's system model (Section III-A) runs on a cluster of workers.
Historically the simulator's :class:`~repro.cluster.worker.WorkerSet` was
pure accounting -- worker count never affected latency.  The
:class:`PlacementEngine` makes workers a real resource:

* **Selection** -- cold starts are placed on a worker.  Without a
  concurrency limit this reproduces the historical least-memory rule
  byte-for-byte; with a limit, the engine load-balances on in-flight
  startups/executions instead.
* **Admission** -- each worker runs at most ``concurrency_limit``
  containers concurrently (startup phases plus execution).  Startups
  beyond the limit queue FIFO on their worker; :meth:`admit` returns the
  actual start time and the queueing delay, which the simulator adds to
  the reported startup latency and records separately.

Admission is computed *at decision time*: every admitted startup's
release time (startup + execution) is known when it is admitted, so the
engine keeps a small heap of per-slot release times per worker and derives
each newcomer's start time deterministically -- no extra event types, and
with the limit disabled the engine is a strict no-op on the hot path.

Like the container lifecycle, the engine is time-source-agnostic: ``now``
is always an argument, never read from a clock, so the same admission
arithmetic serves offline simulation and the online serving plane.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.cluster.worker import WorkerSet


class PlacementEngine:
    """Worker selection plus per-worker concurrency admission.

    Parameters
    ----------
    workers:
        The placement bookkeeping shared with the rest of the cluster.
    concurrency_limit:
        Maximum containers concurrently starting or executing per worker;
        ``None`` disables admission control entirely (no queueing, and
        selection falls back to the historical least-memory rule).
    """

    def __init__(
        self,
        workers: WorkerSet,
        concurrency_limit: Optional[int] = None,
    ) -> None:
        if concurrency_limit is not None and concurrency_limit < 1:
            raise ValueError("concurrency_limit must be >= 1")
        self.workers = workers
        self.concurrency_limit = concurrency_limit
        n = workers.n_workers
        # Per-worker release times of the jobs currently holding a slot
        # chain (at most ``concurrency_limit`` entries per worker).
        self._slots: List[List[float]] = [[] for _ in range(n)]
        # Per-worker release times of every admitted, unreleased startup.
        self._inflight: List[List[float]] = [[] for _ in range(n)]
        # Per-worker start times of admitted-but-not-yet-started startups.
        self._waiting: List[List[float]] = [[] for _ in range(n)]

    @property
    def queueing_enabled(self) -> bool:
        """Whether a finite concurrency limit is being enforced."""
        return self.concurrency_limit is not None

    # -- selection ----------------------------------------------------------
    def select_worker(self, now: float) -> int:
        """Pick the worker for a new (cold-started) container.

        With admission control off this is the historical least-memory
        rule.  With it on, workers are ranked by in-flight load first so
        ``n_workers`` genuinely spreads startup contention.
        """
        candidates = self.workers.workers()
        if self.concurrency_limit is None:
            chosen = min(candidates, key=lambda w: (w.memory_mb, w.worker_id))
        else:
            chosen = min(
                candidates,
                key=lambda w: (
                    self._inflight_count(w.worker_id, now),
                    w.memory_mb,
                    w.worker_id,
                ),
            )
        return chosen.worker_id

    def place(self, container_id: int, memory_mb: float, now: float) -> int:
        """Select a worker and record the placement; returns the worker id."""
        worker_id = self.select_worker(now)
        return self.workers.place_on(worker_id, container_id, memory_mb)

    def release(self, container_id: int, memory_mb: float) -> None:
        """Remove a destroyed container from its worker's books."""
        self.workers.release(container_id, memory_mb)

    # -- admission ----------------------------------------------------------
    def admit(self, worker_id: int, now: float, hold_s: float) -> Tuple[float, float]:
        """Admit a startup holding a worker slot for ``hold_s`` seconds.

        Returns ``(start_time, queue_delay)``.  With the limit disabled the
        startup begins immediately.  Otherwise the startup begins as soon
        as a slot frees on its worker (FIFO); because every admitted job's
        release time is known, the start time is exact, not an estimate.
        """
        if self.concurrency_limit is None:
            return now, 0.0
        slots = self._slots[worker_id]
        while slots and slots[0] <= now:
            heapq.heappop(slots)
        start = now
        while len(slots) >= self.concurrency_limit:
            release_at = heapq.heappop(slots)
            if release_at > start:
                start = release_at
        release = start + hold_s
        heapq.heappush(slots, release)
        inflight = self._inflight[worker_id]
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        heapq.heappush(inflight, release)
        if start > now:
            waiting = self._waiting[worker_id]
            while waiting and waiting[0] <= now:
                heapq.heappop(waiting)
            heapq.heappush(waiting, start)
        return start, start - now

    # -- load views ---------------------------------------------------------
    def _inflight_count(self, worker_id: int, now: float) -> int:
        inflight = self._inflight[worker_id]
        while inflight and inflight[0] <= now:
            heapq.heappop(inflight)
        return len(inflight)

    def slot_counts(self) -> Tuple[int, ...]:
        """Occupied (possibly stale) slot-chain entries per worker.

        :meth:`admit` pops the slot heap below the limit before every push,
        so each count is bounded by ``concurrency_limit`` at all times --
        the invariant the verification harness checks.  Entries whose
        release time has passed are pruned lazily at the next admission,
        so counts may include already-released jobs.
        """
        return tuple(len(slots) for slots in self._slots)

    def queue_depths(self, now: float) -> Tuple[int, ...]:
        """Startups waiting for a concurrency slot, per worker.

        All zeros when admission control is disabled.
        """
        if self.concurrency_limit is None:
            return (0,) * self.workers.n_workers
        depths = []
        for waiting in self._waiting:
            while waiting and waiting[0] <= now:
                heapq.heappop(waiting)
            depths.append(len(waiting))
        return tuple(depths)
