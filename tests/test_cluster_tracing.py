"""Tests for structured event tracing."""

import json

import pytest

from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.telemetry import Telemetry, TraceEvent
from repro.schedulers.lru import LRUScheduler
from repro.workloads.fstartbench import overall_workload


class TestTraceEvent:
    def test_to_json_roundtrip(self):
        event = TraceEvent(1.5, "cold_start", 3, "fn", "latency=2.1s")
        data = json.loads(event.to_json())
        assert data["kind"] == "cold_start"
        assert data["container"] == 3
        assert data["function"] == "fn"


class TestTelemetryTrace:
    def test_disabled_by_default(self):
        t = Telemetry()
        t.record_event(0.0, "x")
        assert t.trace == []

    def test_enabled_records(self):
        t = Telemetry(trace_enabled=True)
        t.record_event(0.0, "x", 1, "f")
        assert len(t.trace) == 1


class TestSimulatorTracing:
    @pytest.fixture(scope="class")
    def telemetry(self):
        workload = overall_workload(seed=0, n=60)
        scheduler = LRUScheduler()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=800.0, trace=True),
            scheduler.make_eviction_policy(),
        )
        return sim.run(workload, scheduler).telemetry

    def test_start_events_match_invocations(self, telemetry):
        starts = [e for e in telemetry.trace
                  if e.kind.startswith(("cold_", "warm_"))]
        assert len(starts) == telemetry.n_invocations

    def test_completion_events_present(self, telemetry):
        completes = [e for e in telemetry.trace
                     if e.kind == "execution_complete"]
        assert len(completes) == telemetry.n_invocations

    def test_eviction_events_match_counter(self, telemetry):
        evictions = [e for e in telemetry.trace if e.kind == "eviction"]
        assert len(evictions) == telemetry.evictions

    def test_events_time_ordered(self, telemetry):
        times = [e.time for e in telemetry.trace]
        assert times == sorted(times)

    def test_untraced_run_is_empty(self):
        workload = overall_workload(seed=0, n=20)
        scheduler = LRUScheduler()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=800.0),
            scheduler.make_eviction_policy(),
        )
        t = sim.run(workload, scheduler).telemetry
        assert t.trace == []
