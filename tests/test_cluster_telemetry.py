"""Tests for the telemetry collector."""

import numpy as np
import pytest

from repro.cluster.telemetry import (
    Counters,
    InvocationRecord,
    Telemetry,
    summary_fold,
)
from repro.containers.costmodel import StartupBreakdown
from repro.containers.matching import MatchLevel


def record(i, latency=1.0, cold=True, name="f", arrival=None,
           match=MatchLevel.NO_MATCH):
    return InvocationRecord(
        invocation_id=i,
        function_name=name,
        arrival_time=float(i) if arrival is None else arrival,
        container_id=i,
        cold_start=cold,
        match=match,
        startup_latency_s=latency,
        breakdown=StartupBreakdown(create_s=latency),
        execution_time_s=0.5,
    )


@pytest.fixture
def telemetry():
    t = Telemetry()
    t.record_invocation(record(0, 2.0, cold=True, name="a"))
    t.record_invocation(record(1, 0.5, cold=False, name="a",
                               match=MatchLevel.L3))
    t.record_invocation(record(2, 1.5, cold=True, name="b"))
    return t


class TestAggregates:
    def test_counts(self, telemetry):
        assert telemetry.n_invocations == 3
        assert telemetry.cold_starts == 2
        assert telemetry.warm_starts == 1

    def test_total_and_mean(self, telemetry):
        assert telemetry.total_startup_latency_s == pytest.approx(4.0)
        assert telemetry.mean_startup_latency_s == pytest.approx(4.0 / 3)

    def test_empty_telemetry(self):
        t = Telemetry()
        assert t.mean_startup_latency_s == 0.0
        assert t.summary()["invocations"] == 0.0

    def test_cumulative_series(self, telemetry):
        np.testing.assert_allclose(
            telemetry.cumulative_latency(), [2.0, 2.5, 4.0]
        )
        np.testing.assert_array_equal(
            telemetry.cumulative_cold_starts(), [1, 1, 2]
        )

    def test_match_histogram(self, telemetry):
        hist = telemetry.match_histogram()
        assert hist[MatchLevel.NO_MATCH] == 2
        assert hist[MatchLevel.L3] == 1
        assert hist[MatchLevel.L1] == 0

    def test_summary_keys(self, telemetry):
        s = telemetry.summary()
        for key in ("total_startup_s", "mean_startup_s", "cold_starts",
                    "evictions", "peak_warm_memory_mb"):
            assert key in s


class TestMemoryTracking:
    def test_peak_warm(self):
        t = Telemetry()
        t.sample_memory(0.0, 100.0)
        t.sample_memory(1.0, 300.0)
        t.sample_memory(2.0, 50.0)
        assert t.peak_warm_memory_mb == 300.0

    def test_peak_live(self):
        t = Telemetry()
        t.sample_live_memory(500.0)
        t.sample_live_memory(200.0)
        assert t.peak_live_memory_mb == 500.0


class TestEvents:
    def test_eviction_and_rejection_counters(self):
        """Telemetry extends the shared Counters record; summary_fold
        reads the counters off a bare record and a collector alike."""
        t = Telemetry()
        for counters in (t, Counters()):
            counters.evictions += 3
            counters.keep_alive_rejections += 1
            counters.ttl_expirations += 3
            summary = summary_fold(counters, 0, 0.0, 0.0, 0.0, 0)
            assert summary["evictions"] == 3.0
            assert summary["keep_alive_rejections"] == 1.0
            assert summary["ttl_expirations"] == 3.0
        assert t.summary() == summary

    def test_finish_time(self):
        r = record(0, latency=2.0, arrival=10.0)
        assert r.finish_time == pytest.approx(12.5)
