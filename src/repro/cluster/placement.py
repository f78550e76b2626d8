"""Data-plane placement: worker books, worker selection and startup admission.

The paper's system model (Section III-A) runs on a cluster of workers,
each reserving memory for the warm pool.  The :class:`PlacementEngine`
keeps the worker books -- which worker hosts each live container and how
much memory each worker hosts -- and makes workers a real resource:

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
import math
from typing import Callable, Dict, List, Optional, Tuple


class PlacementEngine:
    """Worker books, worker selection and per-worker concurrency admission.

    Parameters
    ----------
    n_workers:
        Worker nodes in the cluster (at least one).
    concurrency_limit:
        Maximum containers concurrently starting or executing per worker;
        ``None`` disables admission control entirely (no queueing, and
        selection falls back to the historical least-memory rule).

    The books price a container at its placement-time memory and release
    whatever memory the caller passes (a repacked container's current
    size), clamped at zero; the least-memory rule depends on exactly that
    arithmetic, so it is never repriced in between.
    """

    def __init__(
        self,
        n_workers: int,
        concurrency_limit: Optional[int] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if concurrency_limit is not None and concurrency_limit < 1:
            raise ValueError("concurrency_limit must be >= 1")
        self.n_workers = n_workers
        self.concurrency_limit = concurrency_limit
        #: Memory hosted per worker (MB), indexed by worker id.
        self.memory_mb: List[float] = [0.0] * n_workers
        # Worker id of every placed, unreleased container.
        self._placement: Dict[int, int] = {}
        #: ``worker_of(container_id)``: the worker id hosting a placed
        #: container (``KeyError`` when it is not placed).  The books'
        #: own lookup, bound once, so a start's worker costs no Python
        #: call.
        self.worker_of: Callable[[int], int] = self._placement.__getitem__
        # Per-worker release times of the jobs currently holding a slot
        # chain (at most ``concurrency_limit`` entries per worker).
        self._slots: List[List[float]] = [[] for _ in range(n_workers)]
        # Per-worker release times of every admitted, unreleased startup.
        self._inflight: List[List[float]] = [[] for _ in range(n_workers)]
        # Per-worker start times of admitted-but-not-yet-started startups.
        self._waiting: List[List[float]] = [[] for _ in range(n_workers)]

    @property
    def queueing_enabled(self) -> bool:
        """Whether a finite concurrency limit is being enforced."""
        return self.concurrency_limit is not None

    # -- selection and books -------------------------------------------------
    def select_worker(self, now: float) -> int:
        """Pick the worker for a new (cold-started) container.

        With admission control off this is the historical least-memory
        rule: smallest hosted memory, ties broken by the lower worker id.
        With it on, workers are ranked by in-flight load first so
        ``n_workers`` genuinely spreads startup contention: the least
        ``(in-flight startups, hosted memory, worker id)``, found in one
        pass that prunes each worker's in-flight heap once.
        """
        memory = self.memory_mb
        if self.concurrency_limit is None:
            # ``index`` returns the first minimum: the lowest id on a tie.
            return memory.index(min(memory))
        best, best_load, best_mb = 0, math.inf, math.inf
        for w, inflight in enumerate(self._inflight):
            while inflight and inflight[0] <= now:
                heapq.heappop(inflight)
            load = len(inflight)
            # Strict comparisons keep the lower id on a full tie.
            if load < best_load or (load == best_load and memory[w] < best_mb):
                best, best_load, best_mb = w, load, memory[w]
        return best

    def place(self, container_id: int, memory_mb: float, now: float) -> int:
        """Select a worker and book the container on it; returns its id."""
        if container_id in self._placement:
            raise ValueError(f"container {container_id} already placed")
        worker_id = self.select_worker(now)
        self._placement[container_id] = worker_id
        self.memory_mb[worker_id] += memory_mb
        return worker_id

    def release(self, container_id: int, memory_mb: float) -> None:
        """Remove a destroyed container from its worker's books."""
        worker_id = self._placement.pop(container_id, None)
        if worker_id is None:
            raise KeyError(f"container {container_id} not placed")
        self.memory_mb[worker_id] = max(
            0.0, self.memory_mb[worker_id] - memory_mb
        )

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
    def slot_counts(self) -> Tuple[int, ...]:
        """Occupied (possibly stale) slot-chain entries per worker.

        :meth:`admit` pops the slot heap below the limit before every push,
        so each count is bounded by ``concurrency_limit`` at all times --
        the invariant the verification harness checks.  Entries whose
        release time has passed are pruned lazily at the next admission,
        so counts may include already-released jobs.
        """
        return tuple(len(slots) for slots in self._slots)

    def queue_depth(self, worker_id: int, now: float) -> int:
        """Startups waiting for a concurrency slot on one worker at ``now``.

        0 when admission control is disabled.  A worker's waiting heap
        grows only when :meth:`admit` queues a startup on it, so between
        its own admissions its depth only falls: the deepest queue over a
        run is the deepest one read from each admitted worker right after
        its admission.
        """
        if self.concurrency_limit is None:
            return 0
        waiting = self._waiting[worker_id]
        while waiting and waiting[0] <= now:
            heapq.heappop(waiting)
        return len(waiting)

    def queue_depths(self, now: float) -> Tuple[int, ...]:
        """Startups waiting for a concurrency slot, per worker.

        All zeros when admission control is disabled.
        """
        return tuple(
            self.queue_depth(w, now) for w in range(self.n_workers)
        )
