"""Control-plane event loop: the completion queue, the clock, sweeps.

The :class:`EventLoop` is the one completion queue of both engines: a
deterministic ``heapq`` heap of completion
:class:`~repro.cluster.events.Event` named tuples plus the sequence
counter that breaks time ties, and the simulation clock (a plain float
that only moves forward).  Each clock advance can run a sweep (the
warm-pool TTL sweep, so expiry runs once per popped completion and once
per arrival, after time has advanced).  The caller passes the sweep with
each :meth:`~EventLoop.pop_next`, :meth:`~EventLoop.drain_until` or
:meth:`~EventLoop.advance_to` call instead of the loop storing it: the
sweep is a method of the lifecycle that owns the loop, so a stored one
would tie the two into a reference cycle that only the cyclic garbage
collector frees.

Arrivals never enter the loop.  Each engine holds the next arrival
itself and hands :meth:`EventLoop.drain_until` the arrival's time and
its completion handler; the loop pops every completion due strictly
before the arrival.  Then the engine sweeps at the arrival (the
sequential :class:`~repro.cluster.simulator.ClusterSimulator` by moving
the clock there with :meth:`EventLoop.advance_to`).  Each
:class:`~repro.cluster.lifecycle.PoolLifecycle` owns one loop; a lane of
:mod:`repro.cluster.lanes` pushes and pops its loop's
:attr:`EventLoop.heap` inline, in the same order, then drains it.

The loop's clock is always virtual, so the golden traces and the
differential oracles pin its behaviour byte-for-byte.  The
:class:`TimeSource` protocol and its two clocks live here too:

* :class:`VirtualClock` -- a deterministic clock that only moves when
  advanced; the scripted wall source of tests, examples and the
  benchmark's serving leg.
* :class:`WallClock` -- real elapsed time from ``time.monotonic``
  relative to a construction-time epoch.  ``advance_to`` never *sets*
  wall time (it cannot); it only clamps the reading forward.

The online serving plane (:mod:`repro.serve`) samples a wall source to
timestamp arriving requests and then drives the same deterministic
event loop with those timestamps, which is what makes a serving session
replayable through the offline simulator (the ``serve_replay``
differential oracle).
"""

from __future__ import annotations

import itertools
import time as _time
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.cluster.events import Event

#: Builds an :class:`Event` from one tuple without the keyword constructor.
_new_event = tuple.__new__

#: A clock-advance hook: called with the new clock reading.
Sweep = Callable[[float], Any]


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
    """Deterministic completion queue plus clock.

    Every clock-moving method takes an optional ``sweep``: a callable
    invoked with the current time after the clock advance (once per
    popped event and once per explicit :meth:`advance_to`).  The pool
    lifecycle passes its TTL sweep there.

    Parameters
    ----------
    observer:
        Optional callable ``(kind, time)`` notified on every ``"schedule"``
        (with the event's time) and every ``"advance"`` (with the new clock
        reading).  The verification harness installs its clock-monotonicity
        monitor here; ``None`` (the default) keeps the loop observer-free.
    """

    def __init__(
        self,
        observer: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        #: Current simulation time; it never rewinds.
        self.now = 0.0
        #: The completion heap of ``(time, priority, seq, payload)`` tuples
        #: (:meth:`schedule` pushes :class:`Event` ones), numbered by seq.
        self.heap: list[Event] = []
        self.seq = itertools.count()
        self._observer = observer

    def schedule(
        self, time: float, payload: Any = None, priority: float = 0
    ) -> Event:
        """Queue a completion at ``time``; returns the created event.

        Completions due at one time pop by ``(priority, seq)``.  The
        sequential engine passes the time the container finished
        starting up (as a lane does on its inline pushes).
        """
        if self._observer is not None:
            self._observer("schedule", time)
        if time < 0:
            raise ValueError("event time must be >= 0")
        event = _new_event(Event, (time, priority, next(self.seq), payload))
        heappush(self.heap, event)
        return event

    def pop_next(self, sweep: Optional[Sweep] = None) -> Optional[Event]:
        """Pop the earliest event, advance the clock, run ``sweep``.

        Returns ``None`` when the heap is empty (the clock is untouched
        and no sweep runs in that case).
        """
        if not self.heap:
            return None
        event = heappop(self.heap)
        now = event[0]
        if now > self.now:
            self.now = now
        else:
            now = self.now
        if self._observer is not None:
            self._observer("advance", now)
        if sweep is not None:
            sweep(now)
        return event

    def drain_until(
        self,
        time: float,
        on_complete: Callable[[Any, float], None],
        sweep: Optional[Sweep] = None,
    ) -> None:
        """Handle every completion due strictly before ``time``.

        Each one pops through :meth:`pop_next` (clock advance, then
        ``sweep``) and is handed to ``on_complete(payload, now)``.  An
        arrival at ``time`` therefore wins every time tie with a
        completion.
        """
        heap = self.heap
        pop_next = self.pop_next
        while heap and heap[0][0] < time:
            on_complete(pop_next(sweep)[3], self.now)

    def advance_to(self, time: float, sweep: Optional[Sweep] = None) -> float:
        """Advance the clock with no event, running the observer and
        ``sweep``.

        The simulator calls this at every arrival, after the completions
        due before it; the online serving plane's janitor calls it to make
        "wall time passed with nothing due" a first-class loop operation:
        TTL expiry (the ``sweep``) runs exactly as it would at an event
        pop, so idle containers scale to zero between requests.  A time
        in the past leaves the clock where it is.  Returns the new clock
        reading.
        """
        if time > self.now:
            self.now = time
        now = self.now
        if self._observer is not None:
            self._observer("advance", now)
        if sweep is not None:
            sweep(now)
        return now

    def __len__(self) -> int:
        return len(self.heap)
