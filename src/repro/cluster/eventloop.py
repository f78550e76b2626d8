"""Control-plane event loop: the time source, the completion heap, sweeps.

The :class:`EventLoop` owns the pieces of the simulator that define *when*
things happen: a deterministic ``heapq`` heap of completion
:class:`~repro.cluster.events.Event` named tuples plus the sequence
counter that breaks time ties, a pluggable :class:`TimeSource`, and an
optional sweep hook that runs after every clock advance (the simulator
installs the warm-pool TTL sweep there, so expiry runs once per popped
completion and once per arrival, after time has advanced).

Arrivals never enter the loop.  The simulator holds the next undecided
arrival itself, pops the completions due strictly before it, then moves
the clock to the arrival with :meth:`EventLoop.advance_to` -- the order
the lane kernel's ``drain_until`` follows too.

Time is abstracted behind the :class:`TimeSource` protocol so sim-time and
wall-time are interchangeable:

* :class:`VirtualClock` -- the historical simulation clock: time is a plain
  float that only moves when the loop advances it.  Fully deterministic;
  every offline driver (``run``, ``run_stream``, incremental) uses it,
  and the golden traces / differential oracles pin its behaviour
  byte-for-byte.
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
driver (:class:`~repro.cluster.simulator.ClusterSimulator`) keeps no clock
and runs no sweep: it only orders its one pending arrival against the
heap head and decides what to do with the events the loop hands it.
"""

from __future__ import annotations

import itertools
import time as _time
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.cluster.events import Event

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
    """Deterministic completion heap plus time source plus per-advance sweep.

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
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._sweep = sweep
        self._observer = observer

    @property
    def now(self) -> float:
        """Current time as read from the loop's time source."""
        return self.clock.now

    def schedule(
        self, time: float, payload: Any = None, priority: float = 0
    ) -> Event:
        """Queue a completion at ``time``; returns the created event.

        Completions due at one time pop by ``(priority, seq)``.  The
        simulator passes the time the container finished starting up.
        """
        if self._observer is not None:
            self._observer("schedule", time)
        if time < 0:
            raise ValueError("event time must be >= 0")
        event = _new_event(Event, (time, priority, next(self._seq), payload))
        heappush(self._heap, event)
        return event

    def pop_next(self) -> Optional[Event]:
        """Pop the earliest event, advance the clock, run the sweep.

        Returns ``None`` when the heap is empty (the clock and sweep are
        untouched in that case).
        """
        if not self._heap:
            return None
        event = heappop(self._heap)
        now = self.clock.advance_to(event[0])
        if self._observer is not None:
            self._observer("advance", now)
        if self._sweep is not None:
            self._sweep(now)
        return event

    def advance_to(self, time: float) -> float:
        """Advance the clock with no event, running the observer and sweep.

        The simulator calls this at every arrival, after the completions
        due before it; the online serving plane's janitor calls it to make
        "wall time passed with nothing due" a first-class loop operation:
        TTL expiry (the sweep hook) runs exactly as it would at an event
        pop, so idle containers scale to zero between requests.  Returns
        the new clock reading (which, for a :class:`WallClock`, may exceed
        ``time``).
        """
        now = self.clock.advance_to(time)
        if self._observer is not None:
            self._observer("advance", now)
        if self._sweep is not None:
            self._sweep(now)
        return now

    def peek(self) -> Optional[Event]:
        """The earliest queued event without popping it."""
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
