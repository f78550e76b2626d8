"""Hypothesis parity: Telemetry vs the legacy list reference.

Random event streams are fed to both
:class:`repro.cluster.telemetry.Telemetry` (rows appended, typed columns
read) and :class:`repro.cluster.telemetry_reference.LegacyTelemetry` (the
list-of-records implementation it replaced); every observable --
``summary()``, the materialized records and columns (array typecodes
included), ``queueing_summary()``, ``worker_utilization()``, the
warm-memory peak, trace-line serializations -- must be identical,
because downstream reports and golden traces were recorded against the
legacy semantics.  :class:`~repro.cluster.telemetry.BoundedTelemetry`'s
exact count aggregates must equal the exact collector's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.telemetry import (
    BoundedTelemetry,
    InvocationColumns,
    Telemetry,
)
from repro.cluster.telemetry_reference import LegacyTelemetry
from repro.containers.costmodel import StartupBreakdown
from repro.verify.trace import TraceLine

FUNCTION_NAMES = ("alpha", "beta", "gamma", "delta-9", "f")

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)

event_strategy = st.tuples(
    st.integers(min_value=0, max_value=10**6),      # invocation_id
    st.sampled_from(FUNCTION_NAMES),                # function_name
    finite,                                         # arrival_time
    st.integers(min_value=0, max_value=500),        # container_id
    st.booleans(),                                  # cold_start
    st.integers(min_value=0, max_value=3),          # match level
    finite,                                         # startup_latency_s
    st.builds(StartupBreakdown, finite, finite, finite, finite, finite,
              finite),                              # breakdown phases
    finite,                                         # execution_time_s
    finite,                                         # queue_delay_s
    st.integers(min_value=0, max_value=7),          # worker_id
)

stream_strategy = st.lists(event_strategy, max_size=60)


def _pair(queueing: bool = False):
    return (
        Telemetry(queueing_enabled=queueing),
        LegacyTelemetry(queueing_enabled=queueing),
    )


def _feed(telemetries, events):
    for t in telemetries:
        for event in events:
            t.record_invocation_values(*event)


@settings(max_examples=40, deadline=None)
@given(events=stream_strategy)
def test_summary_and_records_parity(events):
    columnar, legacy = _pair()
    _feed((columnar, legacy), events)

    assert columnar.summary() == legacy.summary()
    assert columnar.records == legacy.records
    assert columnar.n_invocations == legacy.n_invocations
    assert columnar.latencies().tolist() == legacy.latencies().tolist()
    assert (columnar.cumulative_latency().tolist()
            == legacy.cumulative_latency().tolist())
    assert (columnar.cumulative_cold_starts().tolist()
            == legacy.cumulative_cold_starts().tolist())
    assert columnar.match_histogram() == legacy.match_histogram()


#: The array typecode each scalar column must have (None: a plain list).
EXPECTED_TYPECODES = {
    "invocation_id": "q",
    "function_name": None,
    "arrival_time": "d",
    "container_id": "q",
    "cold_start": "b",
    "match": "b",
    "startup_latency_s": "d",
    "queue_delay_s": "d",
    "worker_id": "q",
    "execution_time_s": "d",
}


def _assert_columns_match_records(columns, records):
    """Each column holds its field of the reference rows, in order, with
    the pinned typecode."""
    assert list(InvocationColumns._fields) == list(EXPECTED_TYPECODES)
    for field, typecode in EXPECTED_TYPECODES.items():
        column = getattr(columns, field)
        assert getattr(column, "typecode", None) == typecode, field
        assert list(column) == [getattr(r, field) for r in records], field


@settings(max_examples=40, deadline=None)
@given(events=stream_strategy, cut=st.integers(min_value=0, max_value=60))
def test_invocation_columns_parity(events, cut):
    """``invocation_columns()`` equals the reference rows field by field,
    typecodes included, also when rows are appended between two reads
    (the cached columns and records must then be rebuilt)."""
    telemetry, legacy = _pair()
    _feed((legacy,), events)
    head, tail = events[:cut], events[cut:]
    _feed((telemetry,), head)
    _assert_columns_match_records(
        telemetry.invocation_columns(), legacy.records[:len(head)]
    )
    assert telemetry.records == legacy.records[:len(head)]
    _feed((telemetry,), tail)
    _assert_columns_match_records(
        telemetry.invocation_columns(), legacy.records
    )
    assert telemetry.records == legacy.records
    assert telemetry.summary() == legacy.summary()


@settings(max_examples=40, deadline=None)
@given(events=stream_strategy)
def test_bounded_count_aggregates_parity(events):
    """BoundedTelemetry's inline cold-start and match-level tallies equal
    the exact collector's counts over the same stream."""
    exact, bounded = Telemetry(), BoundedTelemetry()
    _feed((exact, bounded), events)
    assert bounded.n_invocations == exact.n_invocations
    assert bounded.cold_starts == exact.cold_starts
    assert bounded.warm_starts == exact.warm_starts
    assert bounded.match_histogram() == exact.match_histogram()


@settings(max_examples=40, deadline=None)
@given(events=stream_strategy)
def test_trace_line_bytes_parity(events):
    """Golden-trace lines from the columns == lines from the row view."""
    columnar, legacy = _pair()
    _feed((columnar, legacy), events)

    cols = columnar.invocation_columns()
    from_columns = [
        TraceLine(
            index=i, invocation_id=inv, function=fn, arrival=arrival,
            cold=bool(cold), container_id=cid, match=match,
            latency_s=latency, queue_s=queue, worker=worker, exec_s=exec_s,
        ).to_json()
        for i, (inv, fn, arrival, cold, cid, match, latency, queue, worker,
                exec_s)
        in enumerate(zip(
            cols.invocation_id, cols.function_name, cols.arrival_time,
            cols.cold_start, cols.container_id, cols.match,
            cols.startup_latency_s, cols.queue_delay_s, cols.worker_id,
            cols.execution_time_s,
        ))
    ]
    from_records = [
        TraceLine.from_record(i, record).to_json()
        for i, record in enumerate(legacy.records)
    ]
    assert from_columns == from_records


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=60.0,
                              allow_nan=False), max_size=40),
    busy=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False)),
        max_size=20,
    ),
    depth=st.integers(min_value=0, max_value=12),
    duration=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.1, max_value=500.0, allow_nan=False),
    ),
    slots=st.integers(min_value=1, max_value=4),
)
def test_queueing_parity(delays, busy, depth, duration, slots):
    columnar, legacy = _pair(queueing=True)
    for t in (columnar, legacy):
        t.worker_slots = slots
        for delay in delays:
            t.record_queueing(delay)
        for worker, seconds in busy:
            t.record_worker_busy(worker, seconds)
        t.record_queue_depth(depth)
        t.duration_s = duration

    assert columnar.queueing_summary() == legacy.queueing_summary()
    assert columnar.worker_utilization() == legacy.worker_utilization()
    assert columnar.summary() == legacy.summary()


@settings(max_examples=40, deadline=None)
@given(samples=st.lists(finite, max_size=60))
def test_peak_warm_memory_parity(samples):
    columnar, legacy = _pair()
    for i, mb in enumerate(samples):
        columnar.sample_memory(float(i), mb)
        legacy.sample_memory(float(i), mb)
    assert columnar.peak_warm_memory_mb == legacy.peak_warm_memory_mb
    assert columnar.summary() == legacy.summary()


def test_records_view_is_cached_and_invalidates():
    telemetry = Telemetry()
    event = (1, "f", 0.0, 7, True, 2, 0.4,
             StartupBreakdown(0.1, 0.1, 0.1, 0.05, 0.05, 0.0), 1.0, 0.0, 0)
    telemetry.record_invocation_values(*event)
    first = telemetry.records
    assert telemetry.records is first          # cached
    telemetry.record_invocation_values(*event)
    assert telemetry.records is not first      # new row invalidates
    assert len(telemetry.records) == 2
