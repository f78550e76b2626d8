"""Discrete-event records for the cluster simulator.

An :class:`Event` is a named tuple ``(time, priority, seq, payload)``:
one invocation's completion, due when its container's startup *and*
execution are both done.  :class:`~repro.cluster.eventloop.EventLoop`
keeps them on a ``heapq`` heap, which orders them with the native tuple
comparison.  A completion's ``priority`` is the time its container
finished starting up, so completions due at one time pop in the order
their startups finished, then in insertion order.  The loop numbers
events as it schedules them; ``seq`` is unique, so a comparison never
reaches ``payload``.

Arrivals are not events.  Every driver feeds them in time order, so the
simulator holds the next undecided one in a single slot and handles the
completions due strictly before it first: an arrival wins every time tie
with a completion.  Nothing reads the boundary between an invocation's
startup and its execution, so that is not an event either.
"""

from typing import Any, NamedTuple


class Event(NamedTuple):
    """A scheduled completion.

    Completions are ordered by ``(time, priority, seq)``; ``payload`` is
    the container involved.  Events are ordered, never hashed or compared
    for equality: a named tuple's equality and hash would include the
    payload.
    """

    time: float
    priority: float
    seq: int
    payload: Any
