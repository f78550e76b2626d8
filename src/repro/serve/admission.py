"""HTTP-plane admission control: bounded in-flight requests.

The simulator's :class:`~repro.cluster.placement.PlacementEngine` already
queues startups beyond each worker's ``worker_concurrency`` *inside* the
simulated cluster.  The :class:`AdmissionController` bounds the HTTP plane
itself: at most ``max_inflight`` requests may hold a slot concurrently
(naturally ``n_workers * worker_concurrency``, mirroring the cluster's
aggregate capacity), a small FIFO overflow of ``max_queue`` waiters may
wait for a slot, and anything beyond that is rejected immediately
(HTTP 429) instead of piling up unboundedly in the event loop.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
from typing import AsyncIterator, Deque, Optional

__all__ = ["AdmissionController", "AdmissionRejected"]


class AdmissionRejected(RuntimeError):
    """The request was turned away: in-flight and overflow slots are full."""


class AdmissionController:
    """Counting semaphore with an immediate-reject overflow bound.

    Parameters
    ----------
    max_inflight:
        Maximum requests concurrently holding a slot; ``None`` disables
        admission control (every request is accepted immediately).
    max_queue:
        Requests allowed to *wait* for a slot when all are taken; beyond
        this, :meth:`try_acquire` and :meth:`acquire` raise
        :class:`AdmissionRejected` without yielding.  Default 0: full
        means reject.

    Counters: ``accepted`` requests were given a slot, ``waited`` of them
    queued for it first, ``rejected`` were turned away, and
    ``peak_inflight`` is the most slots held at once.
    """

    def __init__(
        self, max_inflight: Optional[int] = None, max_queue: int = 0
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.peak_inflight = 0
        self.accepted = 0
        self.waited = 0
        self.rejected = 0
        # FIFO of waiters; release hands a freed slot straight to the
        # first, so a newcomer never overtakes the queue.
        self._waiters: Deque[asyncio.Future] = collections.deque()
        self._idle = asyncio.Event()
        self._idle.set()

    def try_acquire(self) -> bool:
        """Take a free slot without waiting.

        Returns ``True`` when the request holds a slot, ``False`` when it
        must queue for one (every slot taken, or earlier requests already
        waiting).  Raises :class:`AdmissionRejected` when the overflow
        queue is full too, so rejected requests cost one exception, not a
        queue entry.
        """
        if self.max_inflight is None or (
            self.inflight < self.max_inflight and not self._waiters
        ):
            self.inflight += 1
            self.accepted += 1
            self._idle.clear()
            if self.inflight > self.peak_inflight:
                self.peak_inflight = self.inflight
            return True
        if len(self._waiters) >= self.max_queue:
            self.rejected += 1
            raise AdmissionRejected(
                f"{self.inflight} in flight and {len(self._waiters)} "
                "waiting; try again later"
            )
        return False

    async def acquire(self) -> None:
        """Take a slot, waiting in the bounded overflow queue if needed.

        Raises :class:`AdmissionRejected` *synchronously* (before any
        await) when both the slots and the overflow queue are full.
        """
        if self.try_acquire():
            return
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        self.waited += 1
        try:
            await waiter
        except BaseException:
            if waiter.done() and not waiter.cancelled():
                self.release()  # handed a slot, then cancelled: pass it on
            elif waiter in self._waiters:
                self._waiters.remove(waiter)
            raise

    def release(self) -> None:
        """Return a slot; hands it to the first waiter (FIFO) if any."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                self.accepted += 1
                return
        self.inflight -= 1
        if self.inflight == 0:
            self._idle.set()

    @contextlib.asynccontextmanager
    async def slot(self) -> AsyncIterator[None]:
        """``async with`` wrapper pairing :meth:`acquire` and :meth:`release`."""
        await self.acquire()
        try:
            yield
        finally:
            self.release()

    async def drained(self) -> None:
        """Block until no request holds a slot (used by graceful shutdown)."""
        await self._idle.wait()
