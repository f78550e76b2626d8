"""Tests for the event queues the :class:`EventLoop` owns."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.eventloop import EventLoop
from repro.cluster.events import Event, EventKind


class TestEventQueue:
    def test_orders_by_time(self):
        loop = EventLoop()
        loop.schedule(5.0, EventKind.ARRIVAL, "late")
        loop.schedule(1.0, EventKind.ARRIVAL, "early")
        assert loop.pop_next().payload == "early"
        assert loop.pop_next().payload == "late"

    def test_fifo_for_simultaneous_events(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(1.0, EventKind.ARRIVAL, i)
        assert [loop.pop_next().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0, EventKind.ARRIVAL)

    def test_pop_empty_returns_none(self):
        assert EventLoop().pop_next() is None

    def test_peek(self):
        loop = EventLoop()
        assert loop.peek() is None
        loop.schedule(2.0, EventKind.ARRIVAL, "x")
        assert loop.peek().payload == "x"
        assert len(loop) == 1  # peek does not remove

    def test_len_and_bool(self):
        loop = EventLoop()
        assert not loop
        loop.schedule(1.0, EventKind.ARRIVAL)
        assert loop and len(loop) == 1

    def test_event_kinds(self):
        assert {k.value for k in EventKind} == {"arrival", "execution"}


class TestEvent:
    def test_fields_and_priority(self):
        loop = EventLoop()
        arrival = loop.schedule(1.0, EventKind.ARRIVAL, "a")
        done = loop.schedule(1.0, EventKind.EXECUTION_COMPLETE, "c")
        ready = loop.schedule(1.0, EventKind.EXECUTION_COMPLETE, "r", 0.25)
        assert isinstance(arrival, Event)
        assert tuple(arrival) == (1.0, 0, 0, EventKind.ARRIVAL, "a")
        assert (done.time, done.priority, done.seq) == (1.0, 1, 1)
        assert done.kind is EventKind.EXECUTION_COMPLETE
        assert (ready.priority, ready.seq) == (0.25, 2)
        # The arrival wins the tie; completions pop by (priority, seq).
        assert [loop.pop_next().payload for _ in range(3)] == ["a", "r", "c"]

    @pytest.mark.parametrize("name", Event._fields)
    def test_fields_are_immutable(self, name):
        event = EventLoop().schedule(1.0, EventKind.ARRIVAL, "x")
        with pytest.raises(AttributeError):
            setattr(event, name, 0)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=0, max_size=50))
def test_pops_in_nondecreasing_time_order(times):
    loop = EventLoop()
    for t in times:
        loop.schedule(t, EventKind.ARRIVAL)
    popped = [loop.pop_next().time for _ in range(len(times))]
    assert popped == sorted(popped)


# Few distinct times so ties are common; payloads that cannot be ordered
# (``object()``, dicts) fail the test if a comparison ever reaches them.
_schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),
        st.sampled_from(list(EventKind)),
        st.one_of(st.builds(object), st.dictionaries(st.text(max_size=2),
                                                     st.integers())),
    ),
    max_size=60,
)


@given(_schedules)
def test_pops_in_time_priority_seq_order(schedules):
    loop = EventLoop()
    expected = []
    for seq, (time, kind, payload) in enumerate(schedules):
        loop.schedule(time, kind, payload)
        priority = 0 if kind is EventKind.ARRIVAL else 1
        expected.append((time, priority, seq, kind, payload))
    expected.sort(key=lambda row: row[:3])
    popped = []
    while (event := loop.pop_next()) is not None:
        popped.append(event)
        assert loop.now == event.time
    assert [row[:3] for row in popped] == [row[:3] for row in expected]
    assert all(event.kind is row[3] and event.payload is row[4]
               for event, row in zip(popped, expected))


# Schedules (time, kind) interleaved with pops (None).
_interleaved = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                  st.sampled_from(list(EventKind))),
    ),
    max_size=60,
)


@settings(max_examples=300)
@given(_interleaved)
def test_interleaved_schedules_and_pops_match_one_heap(ops):
    """Scheduling between pops -- late arrivals, arrivals in the past and
    a drained arrival FIFO included -- pops what one ``(time, priority,
    seq)`` heap with arrivals at priority 0 and completions at 1 pops."""
    loop = EventLoop()
    reference = []
    n = 0
    for op in ops:
        if op is None:
            event = loop.pop_next()
            if not reference:
                assert event is None
            else:
                assert event.payload == heapq.heappop(reference)[2]
        else:
            time, kind = op
            loop.schedule(time, kind, n)
            heapq.heappush(
                reference, (time, 0 if kind is EventKind.ARRIVAL else 1, n)
            )
            n += 1
        assert len(loop) == len(reference)
        assert bool(loop) == bool(reference)
        head = loop.peek()
        assert (head.payload if head else None) == (
            min(reference)[2] if reference else None
        )
