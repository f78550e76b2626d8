"""Tests for the completion heap the :class:`EventLoop` owns.

Arrivals never enter the loop; their order against completions is pinned
at the simulator (``tests/test_timesource.py``,
``tests/test_completion_order.py`` and the golden traces).
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.eventloop import EventLoop
from repro.cluster.events import Event


class TestEventQueue:
    def test_orders_by_time(self):
        loop = EventLoop()
        loop.schedule(5.0, "late")
        loop.schedule(1.0, "early")
        assert loop.pop_next().payload == "early"
        assert loop.pop_next().payload == "late"

    def test_fifo_for_simultaneous_events(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(1.0, i)
        assert [loop.pop_next().payload for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().schedule(-1.0)

    def test_pop_empty_returns_none(self):
        assert EventLoop().pop_next() is None

    def test_len_and_bool(self):
        loop = EventLoop()
        assert not loop
        loop.schedule(1.0)
        assert loop and len(loop) == 1


class TestEvent:
    def test_fields_and_priority(self):
        loop = EventLoop()
        done = loop.schedule(1.0, "c", 1.0)
        ready = loop.schedule(1.0, "r", 0.25)
        first = loop.schedule(1.0, "f")
        assert isinstance(done, Event)
        assert tuple(done) == (1.0, 1.0, 0, "c")
        assert (ready.priority, ready.seq) == (0.25, 1)
        assert (first.priority, first.seq) == (0, 2)
        # Same-time completions pop by (priority, seq).
        assert [loop.pop_next().payload for _ in range(3)] == ["f", "r", "c"]

    @pytest.mark.parametrize("name", Event._fields)
    def test_fields_are_immutable(self, name):
        event = EventLoop().schedule(1.0, "x")
        with pytest.raises(AttributeError):
            setattr(event, name, 0)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=0, max_size=50))
def test_pops_in_nondecreasing_time_order(times):
    loop = EventLoop()
    for t in times:
        loop.schedule(t)
    popped = [loop.pop_next().time for _ in range(len(times))]
    assert popped == sorted(popped)


# Few distinct times and priorities so ties are common; payloads that
# cannot be ordered (``object()``, dicts) fail the test if a comparison
# ever reaches them.
_schedules = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.one_of(st.builds(object), st.dictionaries(st.text(max_size=2),
                                                     st.integers())),
    ),
    max_size=60,
)


@given(_schedules)
def test_pops_in_time_priority_seq_order(schedules):
    loop = EventLoop()
    expected = []
    for seq, (time, priority, payload) in enumerate(schedules):
        loop.schedule(time, payload, priority)
        expected.append((time, priority, seq, payload))
    expected.sort(key=lambda row: row[:3])
    popped = []
    while (event := loop.pop_next()) is not None:
        popped.append(event)
        assert loop.now == event.time
    assert [tuple(event[:3]) for event in popped] == [
        row[:3] for row in expected
    ]
    assert all(event.payload is row[3]
               for event, row in zip(popped, expected))


# Schedules (time, priority) interleaved with pops (None).
_interleaved = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                  st.sampled_from([0.0, 1.0])),
    ),
    max_size=60,
)


@settings(max_examples=300)
@given(_interleaved)
def test_interleaved_schedules_and_pops_match_one_heap(ops):
    """Scheduling between pops -- completions in the past included -- pops
    what one ``(time, priority, seq)`` heap pops, and the clock never
    rewinds."""
    loop = EventLoop()
    reference = []
    n = 0
    last_now = loop.now
    for op in ops:
        if op is None:
            event = loop.pop_next()
            if not reference:
                assert event is None
            else:
                assert event.payload == heapq.heappop(reference)[2]
        else:
            time, priority = op
            loop.schedule(time, n, priority)
            heapq.heappush(reference, (time, priority, n))
            n += 1
        assert loop.now >= last_now
        last_now = loop.now
        assert len(loop) == len(reference)
        assert bool(loop) == bool(reference)
        head = loop.heap[0] if loop.heap else None
        assert (head.payload if head else None) == (
            min(reference)[2] if reference else None
        )
