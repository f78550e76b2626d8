"""Control-plane event loop: the time source, the queue and periodic sweeps.

The :class:`EventLoop` owns the pieces of the simulator that define *when*
things happen: the deterministic event queues of
:class:`~repro.cluster.events.Event` named tuples -- a FIFO of arrivals
and a ``heapq`` heap of completions -- plus the sequence counter that
breaks time ties, a pluggable :class:`TimeSource`, and an optional sweep
hook that runs after every clock advance (the simulator installs the
warm-pool TTL sweep there, so expiry runs once per popped event, after
time has advanced).

Arrivals are scheduled in time order by every driver, so they need no
heap: the FIFO is a sorted list plus a read cursor, appended to in order
and cleared once drained (a streaming feed therefore holds one arrival
in it).  An arrival scheduled out of order is inserted into the unread
part by ``(time, seq)``.  A pop takes the earlier of the FIFO head and
the heap head, and an arrival wins a time tie.

Time is abstracted behind the :class:`TimeSource` protocol so sim-time and
wall-time are interchangeable:

* :class:`VirtualClock` -- the historical simulation clock: time is a plain
  float that only moves when the loop advances it.  Fully deterministic;
  every offline mode (batch, streaming, incremental) uses it, and the
  golden traces / differential oracles pin its behaviour byte-for-byte.
* :class:`WallClock` -- real elapsed time from ``time.monotonic`` relative
  to a construction-time epoch.  ``advance_to`` never *sets* wall time (it
  cannot); it only clamps the reading forward, so a loop driven by a wall
  clock processes events when reality catches up with them.

The online serving plane (:mod:`repro.serve`) samples a :class:`WallClock`
to timestamp arriving requests and then drives the same deterministic
event-loop machinery with those timestamps, which is what makes a serving
session replayable through the offline simulator (the ``serve_replay``
differential oracle).

Separating this layer from the container data plane means the policy
driver (:class:`~repro.cluster.simulator.ClusterSimulator`) contains no
time-keeping logic at all: it only decides what to do with the events the
loop hands it.
"""

from __future__ import annotations

import itertools
import time as _time
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.cluster.events import Event, EventKind

_ARRIVAL = EventKind.ARRIVAL
#: Builds an :class:`Event` from one tuple without the keyword constructor.
_new_event = tuple.__new__


@runtime_checkable
class TimeSource(Protocol):
    """Protocol every clock implementation satisfies.

    A time source exposes a monotone non-decreasing reading (:attr:`now`)
    and an :meth:`advance_to` operation.  For a virtual clock the operation
    *moves* time; for a wall clock it merely clamps the reading so it never
    runs behind an already-processed event.  Either way callers may rely
    on ``advance_to(t)`` returning a value ``>= t`` whenever ``t`` is not
    in the past, and on :attr:`now` never rewinding.
    """

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...  # pragma: no cover - protocol

    def advance_to(self, time: float) -> float:
        """Move (or clamp) the reading to at least ``time``; returns it."""
        ...  # pragma: no cover - protocol


class VirtualClock:
    """Monotonic simulation clock: time advances, never rewinds.

    The deterministic :class:`TimeSource`: ``now`` is a plain float moved
    only by :meth:`advance_to` -- the behaviour the golden traces pin.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def advance_to(self, time: float) -> float:
        """Advance to ``time`` (no-op when ``time`` is in the past)."""
        if time > self.now:
            self.now = time
        return self.now


class WallClock:
    """Real elapsed time relative to a construction-time epoch.

    A :class:`TimeSource` whose reading is ``time.monotonic() - epoch``
    (plus a clamp): wall time advances on its own, so :meth:`advance_to`
    cannot move it -- it only ratchets the *minimum* reading forward,
    guaranteeing the monotone-reading contract even across scheduler
    hiccups where a caller hands us an event time slightly ahead of the
    OS clock.  Timestamps are therefore directly comparable with the
    virtual timestamps of a replayed session (both start at 0.0).
    """

    def __init__(self, monotonic: Callable[[], float] = _time.monotonic) -> None:
        self._monotonic = monotonic
        self._epoch = monotonic()
        self._floor = 0.0

    @property
    def now(self) -> float:
        """Seconds elapsed since construction (never rewinds)."""
        reading = self._monotonic() - self._epoch
        if reading < self._floor:
            return self._floor
        return reading

    def advance_to(self, time: float) -> float:
        """Clamp the reading to at least ``time``; wall time is not moved."""
        if time > self._floor:
            self._floor = time
        return self.now


class EventLoop:
    """Deterministic event queues plus time source plus per-advance sweep.

    Parameters
    ----------
    sweep:
        Optional callable invoked with the current time after every clock
        advance (i.e. once per popped event and once per explicit
        :meth:`advance_to`).  The cluster simulator installs the
        container-lifecycle TTL sweep here.
    observer:
        Optional callable ``(kind, time)`` notified on every ``"schedule"``
        (with the event's time) and every ``"advance"`` (with the new clock
        reading).  The verification harness installs its clock-monotonicity
        monitor here; ``None`` (the default) keeps the loop observer-free.
    clock:
        The :class:`TimeSource` driving the loop.  Defaults to a fresh
        :class:`VirtualClock`, which reproduces the historical simulator
        behaviour exactly; pass a :class:`WallClock` for an online loop
        whose reading tracks real time.
    """

    def __init__(
        self,
        sweep: Optional[Callable[[float], None]] = None,
        observer: Optional[Callable[[str, float], None]] = None,
        clock: Optional[TimeSource] = None,
    ) -> None:
        self.clock: TimeSource = clock if clock is not None else VirtualClock()
        # Arrival FIFO sorted by (time, seq); _next indexes the first
        # unread one.  Empty whenever every arrival has been read.
        self._arrivals: list[Event] = []
        self._next = 0
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._sweep = sweep
        self._observer = observer

    @property
    def now(self) -> float:
        """Current time as read from the loop's time source."""
        return self.clock.now

    def schedule(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        priority: float = 1,
    ) -> Event:
        """Queue an event at ``time``; returns the created event.

        An arrival joins the arrival FIFO with priority 0.  Any other kind
        joins the completion heap with ``priority``: completions due at
        one time pop by ``(priority, seq)``.  The simulator passes the
        time the container finished starting up.
        """
        if self._observer is not None:
            self._observer("schedule", time)
        if time < 0:
            raise ValueError("event time must be >= 0")
        if kind is _ARRIVAL:
            event = _new_event(Event, (time, 0, next(self._seq), kind,
                                       payload))
            arrivals = self._arrivals
            if arrivals and time < arrivals[-1][0]:
                insort(arrivals, event, lo=self._next)
            else:
                arrivals.append(event)
        else:
            event = _new_event(Event, (time, priority, next(self._seq), kind,
                                       payload))
            heappush(self._heap, event)
        return event

    def pop_next(self) -> Optional[Event]:
        """Pop the earliest event, advance the clock, run the sweep.

        Returns ``None`` when both queues are empty (the clock and sweep
        are untouched in that case).
        """
        arrivals = self._arrivals
        heap = self._heap
        if arrivals:
            i = self._next
            event = arrivals[i]
            if heap and heap[0][0] < event[0]:
                event = heappop(heap)
            else:
                i += 1
                if i == len(arrivals):
                    arrivals.clear()
                    i = 0
                self._next = i
        elif heap:
            event = heappop(heap)
        else:
            return None
        now = self.clock.advance_to(event[0])
        if self._observer is not None:
            self._observer("advance", now)
        if self._sweep is not None:
            self._sweep(now)
        return event

    def advance_to(self, time: float) -> float:
        """Advance the clock with no event, running the observer and sweep.

        The online serving plane's janitor uses this to make "wall time
        passed with nothing due" a first-class loop operation: TTL expiry
        (the sweep hook) runs exactly as it would at an event pop, so idle
        containers scale to zero between requests.  Returns the new clock
        reading (which, for a :class:`WallClock`, may exceed ``time``).
        """
        now = self.clock.advance_to(time)
        if self._observer is not None:
            self._observer("advance", now)
        if self._sweep is not None:
            self._sweep(now)
        return now

    def peek(self) -> Optional[Event]:
        """The earliest queued event without popping it."""
        heap = self._heap
        if self._arrivals:
            event = self._arrivals[self._next]
            if heap and heap[0][0] < event[0]:
                return heap[0]
            return event
        return heap[0] if heap else None

    def __len__(self) -> int:
        return len(self._arrivals) - self._next + len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._arrivals or self._heap)
