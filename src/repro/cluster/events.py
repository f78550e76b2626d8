"""Discrete-event records for the cluster simulator.

An :class:`Event` is a named tuple ``(time, priority, seq, kind,
payload)`` that :class:`~repro.cluster.eventloop.EventLoop` keeps on a
``heapq`` heap, so the C heap orders events with the native tuple
comparison.  Arrivals carry priority 0 and all other kinds priority 1, so
a simultaneous arrival is always processed before a completion regardless
of *when* it was scheduled; within a priority class, simultaneous events
run in insertion order.  The loop derives ``priority`` from the kind and
numbers events as it schedules them; ``seq`` is unique, so a comparison
never reaches ``kind`` or ``payload``.  This keeps the simulator fully
deterministic -- and makes the incremental arrival feed
(``ClusterSimulator.run_stream``, which schedules each arrival just in
time) pop events in exactly the order of the batch path, which schedules
every arrival up front with the earliest sequence numbers.
"""

import enum
from typing import Any, NamedTuple


class EventKind(enum.Enum):
    """Kinds of simulator events."""

    ARRIVAL = "arrival"              # a function invocation arrives
    STARTUP_COMPLETE = "startup"     # container finished its startup phases
    EXECUTION_COMPLETE = "execution" # function finished executing


class Event(NamedTuple):
    """A scheduled simulator event, ordered by ``(time, priority, seq)``.

    ``payload`` is the invocation or container involved.  Events are
    ordered, never hashed or compared for equality: a named tuple's
    equality and hash would include the payload.
    """

    time: float
    priority: int
    seq: int
    kind: EventKind
    payload: Any
