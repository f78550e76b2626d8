"""Micro-benchmarks for the columnar telemetry data plane.

Measures event-ingest throughput of the struct-of-arrays
:class:`~repro.cluster.telemetry.Telemetry` against the pre-columnar
list-of-records reference
(:class:`~repro.cluster.telemetry_reference.LegacyTelemetry`), plus the
one-pass summary aggregation over the columns.  The columnar plane's
contract is >= 2x ingest throughput at byte-identical output (the parity
suite in ``tests/test_telemetry_parity.py`` checks the output half).
"""

import time

from repro.cluster.telemetry import Telemetry
from repro.cluster.telemetry_reference import LegacyTelemetry
from repro.containers.costmodel import StartupBreakdown

N_EVENTS = 5_000


def _synthetic_events(n=N_EVENTS):
    """Deterministic invocation-value tuples shaped like simulator output:
    the breakdowns are shared, as the cost model's memoized ones are."""
    breakdowns = [
        StartupBreakdown(0.3, 0.1, 0.05, 0.03, 0.02, 0.0),
        StartupBreakdown(0.0, 0.0, 0.0, 0.0, 0.004, 0.05),
    ]
    events = []
    for i in range(n):
        fn = f"fn-{i % 17}"
        cold = i % 3 == 0
        events.append((
            i, fn, i * 0.01, i % 40, cold, (i % 4),
            0.5 if cold else 0.05,
            breakdowns[0 if cold else 1],
            0.5, 0.0, i % 4,
        ))
    return events


def _ingest(telemetry_cls, events):
    telemetry = telemetry_cls()
    record = telemetry.record_invocation_values
    for event in events:
        record(*event)
    return telemetry


def test_columnar_ingest(benchmark):
    """Append 5k invocation events into the columnar telemetry."""
    events = _synthetic_events()
    telemetry = benchmark(lambda: _ingest(Telemetry, events))
    assert telemetry.n_invocations == N_EVENTS
    assert benchmark.stats["mean"] < 0.05


def test_legacy_ingest_reference(benchmark):
    """The same 5k events through the pre-columnar list implementation."""
    events = _synthetic_events()
    telemetry = benchmark(lambda: _ingest(LegacyTelemetry, events))
    assert telemetry.n_invocations == N_EVENTS


def test_columnar_vs_legacy_speedup():
    """The columnar plane ingests >= 2x faster than the list reference."""
    events = _synthetic_events()
    # Warm both paths once, then take best-of-5 to shed scheduler noise.
    _ingest(Telemetry, events)
    _ingest(LegacyTelemetry, events)

    def best_of(telemetry_cls, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _ingest(telemetry_cls, events)
            best = min(best, time.perf_counter() - start)
        return best

    columnar = best_of(Telemetry)
    legacy = best_of(LegacyTelemetry)
    assert legacy / columnar >= 2.0, (
        f"columnar ingest only {legacy / columnar:.2f}x faster "
        f"({columnar * 1e3:.2f} ms vs {legacy * 1e3:.2f} ms)"
    )


def test_summary_aggregation(benchmark):
    """One-pass summary() over 5k ingested events."""
    telemetry = _ingest(Telemetry, _synthetic_events())

    summary = benchmark(telemetry.summary)
    assert summary["invocations"] == float(N_EVENTS)
    assert benchmark.stats["mean"] < 0.01
