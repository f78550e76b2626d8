"""Worker-node accounting.

The paper's system runs on a cluster of workers, each reserving memory for
the warm pool.  The :class:`WorkerSet` tracks *placement* -- which worker
hosts which container -- and exposes per-worker load views.  Worker
*selection* (least-loaded fallback, startup admission and queueing) lives
in :class:`~repro.cluster.placement.PlacementEngine`; the set itself is
pure bookkeeping so both layers share one source of truth about who hosts
what.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Worker:
    """One worker node hosting containers."""

    worker_id: int
    container_ids: set = field(default_factory=set)
    memory_mb: float = 0.0

    @property
    def n_containers(self) -> int:
        return len(self.container_ids)


class WorkerSet:
    """Container-to-worker placement bookkeeping across a cluster."""

    def __init__(self, n_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self._workers: List[Worker] = [Worker(i) for i in range(n_workers)]
        self._placement: Dict[int, int] = {}

    def workers(self) -> List[Worker]:
        """The live worker objects (placement engines read loads off these)."""
        return self._workers

    def place(self, container_id: int, memory_mb: float) -> int:
        """Assign a container to the least-loaded worker; returns worker id.

        Least-loaded means smallest hosted memory, ties broken by worker
        id -- the historical default selection rule, kept for callers that
        bypass the placement engine.
        """
        worker = min(self._workers, key=lambda w: (w.memory_mb, w.worker_id))
        return self.place_on(worker.worker_id, container_id, memory_mb)

    def place_on(self, worker_id: int, container_id: int, memory_mb: float) -> int:
        """Assign a container to a specific worker; returns the worker id."""
        if container_id in self._placement:
            raise ValueError(f"container {container_id} already placed")
        worker = self._workers[worker_id]
        worker.container_ids.add(container_id)
        worker.memory_mb += memory_mb
        self._placement[container_id] = worker.worker_id
        return worker.worker_id

    def release(self, container_id: int, memory_mb: float) -> None:
        """Remove a container from its worker."""
        worker_id = self._placement.pop(container_id, None)
        if worker_id is None:
            raise KeyError(f"container {container_id} not placed")
        worker = self._workers[worker_id]
        worker.container_ids.discard(container_id)
        worker.memory_mb = max(0.0, worker.memory_mb - memory_mb)

    def worker_of(self, container_id: int) -> int:
        """The worker id hosting a container."""
        return self._placement[container_id]

    def load_snapshot(self) -> List[Dict[str, float]]:
        """Per-worker load for telemetry/reporting."""
        return [
            {"worker_id": w.worker_id, "containers": float(w.n_containers),
             "memory_mb": w.memory_mb}
            for w in self._workers
        ]

    @property
    def n_workers(self) -> int:
        return len(self._workers)
