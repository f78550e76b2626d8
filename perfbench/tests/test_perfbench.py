"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import asyncio
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import loadgen  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_excludes_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def expire_ttl():
        clock.advance(1.0)

    def pop_next():
        clock.advance(2.0)
        traced_expire()
        clock.advance(1.0)

    def next_decision_point():
        clock.advance(1.0)
        traced_pop()
        traced_pop()
        clock.advance(3.0)

    traced_expire = tracer.wrap(expire_ttl, "lifecycle.expire_ttl")
    traced_pop = tracer.wrap(pop_next, "eventloop.pop_next")
    tracer.wrap(next_decision_point, "simulator.next_decision_point")()

    table = tracing.layer_table(tracer.agg)
    assert table["lifecycle.expire_ttl"] == {
        "calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert table["eventloop.pop_next"] == {
        "calls": 2, "self_s": 6.0, "total_s": 8.0}
    assert table["simulator.next_decision_point"] == {
        "calls": 1, "self_s": 4.0, "total_s": 12.0}
    assert tracing.root_seconds(tracer.agg) == 12.0
    assert sum(row["self_s"] for row in table.values()) == 12.0


def test_same_layer_nesting_counts_one_call():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def shard_lookup():
        clock.advance(1.0)

    inner = tracer.wrap(shard_lookup, "pool.lookup")

    def poolset_lookup():
        clock.advance(0.5)
        inner()

    tracer.wrap(poolset_lookup, "pool.lookup")()
    row = tracing.layer_table(tracer.agg)["pool.lookup"]
    assert row == {"calls": 1, "self_s": 1.5, "total_s": 1.5}


def test_async_steps_nest_inside_the_driving_callback():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    async def read_request():
        clock.advance(1.0)
        await asyncio.sleep(0)
        clock.advance(2.0)
        return "request"

    traced_read = tracer.wrap_async(read_request, "serve.router")
    step = tracer.wrap(lambda coro: coro.send(None), "serve.callback")
    coro = traced_read()
    step(coro)                       # first step, up to the sleep
    with pytest.raises(StopIteration):
        step(coro)                   # second step, to completion
    table = tracing.layer_table(tracer.agg)
    assert table["serve.router"] == {"calls": 1, "self_s": 3.0,
                                     "total_s": 3.0}
    assert table["serve.callback"]["self_s"] == 0.0


@pytest.mark.parametrize("n, p", [
    (9, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (96, 100 * 86 / 96),
    (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    assert loadgen.tail_percentile(n) == pytest.approx(p)
    values = list(range(1, n + 1))
    got_p, value = loadgen.tail(values)
    assert got_p == pytest.approx(p)
    beyond = sum(1 for v in values if v > value)
    assert beyond == 10 or (p == 50.0 and beyond == n - (n + 1) // 2)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert loadgen.percentile(values, 50.0) == 3.0
    assert loadgen.percentile(values, 100.0) == 5.0
    assert loadgen.percentile(values, 1.0) == 1.0


def test_open_loop_latency_counts_from_due_time():
    outcome = loadgen.Outcome(due=1.0, sent=1.5, done=2.25, ok=True)
    assert outcome.latency_s == 1.25
    assert outcome.late_s == 0.5
    early = loadgen.Outcome(due=1.0, sent=0.999, done=1.5, ok=True)
    assert early.late_s == 0.0


def test_open_loop_queueing_is_charged_to_latency_not_lateness():
    async def send(function):
        await asyncio.sleep(0.05)
        return True

    schedule = [(0.0, "a"), (0.0, "b"), (0.0, "c")]
    outcomes = asyncio.run(loadgen.drive(schedule, send, max_inflight=1))
    latencies = [o.latency_s for o in outcomes]
    assert all(o.late_s < 0.02 for o in outcomes)
    assert latencies[0] == pytest.approx(0.05, abs=0.02)
    assert latencies[1] == pytest.approx(0.10, abs=0.03)
    assert latencies[2] == pytest.approx(0.15, abs=0.04)
    stats = loadgen.PhaseStats.of(outcomes)
    assert stats.attempted == 3 and stats.failed == 0


def test_growing_generator_lag_is_detected():
    steady = [loadgen.Outcome(i, i + 0.001, i + 0.002, True)
              for i in range(40)]
    growing = [loadgen.Outcome(i, i + 0.001 * i, i + 0.001 * i + 0.002, True)
               for i in range(40)]
    assert not loadgen.lag_grows(steady)
    assert loadgen.lag_grows(growing)
    failed = loadgen.PhaseStats.of(steady[:-1] + [
        loadgen.Outcome(40, 40.001, 40.002, False)])
    assert failed.failed == 1 and not failed.meets(1e9)


def test_poisson_schedule_is_seeded():
    names = ["a", "b", "c"]
    first = loadgen.poisson_schedule(100.0, 2.0, seed=3, functions=names)
    assert first == loadgen.poisson_schedule(100.0, 2.0, seed=3,
                                             functions=names)
    assert first != loadgen.poisson_schedule(100.0, 2.0, seed=4,
                                             functions=names)
    longer = loadgen.poisson_schedule(100.0, 4.0, seed=3, functions=names)
    assert longer[:len(first)] == first


def _digests():
    """Digests of a small scripted + closed grid (lanes and sequential)
    and a small stream (lanes and run_stream)."""
    from repro.experiments import parallel
    from repro.cluster.lanes import run_stream_lanes
    from repro.cluster.simulator import ClusterSimulator, SimulationConfig
    from repro.experiments.ext_stream_replay import (derive_capacity_mb,
                                                     trace_config)
    from repro.workloads.azure import AzureTraceGenerator
    import workloads

    parallel.clear_workload_cache()
    tasks = parallel.default_grid(
        workloads=("LO-Sim", "Peak"),
        schedulers=("greedy", "offline", "faascache", "lending"),
        seeds=[1], pool_labels=("Tight",),
    )
    lane_cells = parallel.run_grid(tasks, jobs=1, lanes=4)
    sequential = [workloads.sequential_summary(t) for t in tasks]
    stream = AzureTraceGenerator(trace_config(40, 1500)).stream(seed=2)
    capacity = derive_capacity_mb(stream)
    lanes = run_stream_lanes([(k, capacity) for k in ("lru", "greedy")],
                             stream, chunk_size=256)
    sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=capacity,
                                            bounded_telemetry=True))
    scheduler = parallel.build_scheduler("greedy")
    reference = sim.run_stream(stream, scheduler).summary()
    return (
        workloads.summary_digest(workloads._cell_row(c) for c in lane_cells),
        workloads.summary_digest(sequential),
        workloads.summary_digest([r.summary for r in lanes] + [reference]),
    )


def test_tracing_install_and_remove_leave_digests_unchanged():
    import repro.cluster.simulator as simulator
    import repro.containers.matching as matching

    original_match_level = matching.match_level
    before = _digests()
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        assert simulator.match_level is not original_match_level
        during = _digests()
    finally:
        installation.remove()
    after = _digests()
    assert before == during == after
    assert before[0] != before[2]
    assert installation.missing == []
    table = tracing.layer_table(tracer.agg)
    for layer in ("schedulers.decide", "schedulers.context",
                  "costmodel.breakdown", "lanes.kernel", "lanes.stream_run",
                  "eventloop.pop_next", "sketches.insert"):
        assert table[layer]["calls"] > 0, layer
    assert matching.match_level is original_match_level
    assert simulator.match_level is original_match_level
    assert not hasattr(simulator.ClusterSimulator.run, "__wrapped__")


def test_benchmark_json_lists_every_per_layer_metric():
    import json

    import traced

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    metrics, _ = traced.per_layer_metrics({}, {}, 1.0, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [
        m["unit"] for m in metrics.values()]
