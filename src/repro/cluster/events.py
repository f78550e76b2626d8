"""Discrete-event records for the cluster simulator.

An :class:`Event` is a named tuple ``(time, priority, seq, kind,
payload)``.  :class:`~repro.cluster.eventloop.EventLoop` keeps two
queues of them:

* **arrivals** in a FIFO sorted by ``(time, seq)`` (priority 0);
* **completions** on a ``heapq`` heap, which orders them with the native
  tuple comparison.  A completion's ``priority`` is the time its
  container finished starting up, so completions due at one time pop in
  the order their startups finished, then in insertion order.

An arrival wins every time tie, regardless of *when* it was scheduled.
The loop numbers events as it schedules them; ``seq`` is unique, so a
comparison never reaches ``kind`` or ``payload``.  This keeps the
simulator fully deterministic -- and makes the incremental arrival feed
(``ClusterSimulator.run_stream``, which schedules each arrival just in
time) pop events in exactly the order of the batch path, which schedules
every arrival up front.

Each invocation holds one queued event at a time: its arrival until it
is decided, then one completion when its startup *and* execution are
done.  Nothing reads the boundary between the two phases, so it is not
an event.
"""

import enum
from typing import Any, NamedTuple


class EventKind(enum.Enum):
    """Kinds of simulator events."""

    ARRIVAL = "arrival"              # a function invocation arrives
    EXECUTION_COMPLETE = "execution" # startup and execution both finished


class Event(NamedTuple):
    """A scheduled simulator event.

    Arrivals carry priority 0 and precede every same-time completion;
    completions are ordered by ``(time, priority, seq)``.  ``payload`` is
    the invocation or container involved.  Events are ordered, never
    hashed or compared for equality: a named tuple's equality and hash
    would include the payload.
    """

    time: float
    priority: float
    seq: int
    kind: EventKind
    payload: Any
