"""The decision-line codec cannot drift from its schema.

:func:`repro.jsonl.decision_line` is the one mapping from an
``InvocationRecord`` to the line golden traces and serving recordings
store; ``DECISION_SCHEMA`` is the one declaration of that line's keys and
kinds.  A random record of every match level and cold flag must encode to
exactly the schema's keys, in its order, at its kinds, and a line written
by the serving recorder must read back as the same line.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.cluster.telemetry import InvocationRecord
from repro.containers.costmodel import StartupBreakdown
from repro.containers.matching import MatchLevel
from repro.jsonl import DECISION_SCHEMA, check_object, decision_line
from repro.serve import DecisionRecorder, ServeEngine, read_recording
from repro.workloads.functions import fstartbench_functions

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
ids = st.integers(min_value=0, max_value=10**9)


def _recording_header() -> str:
    """A serving-recording header line, as a real engine writes it."""
    recorder = DecisionRecorder()
    ServeEngine(SimulationConfig(pool_capacity_mb=4096.0),
                wall=VirtualClock(), recorder=recorder)
    return recorder.lines()[0]


HEADER = _recording_header()


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("match", list(MatchLevel))
@settings(max_examples=25, deadline=None)
@given(
    invocation_id=ids,
    function_name=st.sampled_from(
        [spec.name for spec in fstartbench_functions()]),
    arrival_time=finite,
    container_id=ids,
    startup_latency_s=finite,
    execution_time_s=finite,
    queue_delay_s=finite,
    worker_id=st.integers(min_value=0, max_value=63),
)
def test_decision_line_follows_the_schema_and_reads_back(
    match, cold, invocation_id, function_name, arrival_time, container_id,
    startup_latency_s, execution_time_s, queue_delay_s, worker_id,
):
    record = InvocationRecord(
        invocation_id=invocation_id,
        function_name=function_name,
        arrival_time=arrival_time,
        container_id=container_id,
        cold_start=cold,
        match=match,
        startup_latency_s=startup_latency_s,
        breakdown=StartupBreakdown(),
        execution_time_s=execution_time_s,
        queue_delay_s=queue_delay_s,
        worker_id=worker_id,
    )
    line = decision_line(record)
    assert list(line) == list(DECISION_SCHEMA)
    check_object(line, DECISION_SCHEMA, "decision line", closed=True)

    recorder = DecisionRecorder()
    recorder.on_decision(record)
    _header, entries = read_recording([HEADER, *recorder.lines()])
    assert entries == [line]
    assert list(entries[0]) == list(DECISION_SCHEMA)

