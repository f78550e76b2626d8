"""Tests for the event queue the :class:`EventLoop` owns."""

import pytest
from hypothesis import given
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
        assert {k.value for k in EventKind} == {
            "arrival", "startup", "execution"
        }


class TestEvent:
    def test_fields_and_priority(self):
        loop = EventLoop()
        arrival = loop.schedule(1.0, EventKind.ARRIVAL, "a")
        startup = loop.schedule(1.0, EventKind.STARTUP_COMPLETE, "s")
        assert isinstance(arrival, Event)
        assert tuple(arrival) == (1.0, 0, 0, EventKind.ARRIVAL, "a")
        assert (startup.time, startup.priority, startup.seq) == (1.0, 1, 1)
        assert startup.kind is EventKind.STARTUP_COMPLETE

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
