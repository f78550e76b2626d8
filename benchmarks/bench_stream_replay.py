"""Benchmarks for the streaming replay pipeline (not a paper figure).

Guards the O(1)-memory arrival path end to end: chunked Azure arrival
synthesis must sustain a high generation rate, the ``run_stream`` decision
loop must keep simulator throughput, and -- the structural property the
tentpole exists for -- total memory must stay flat while the invocation
count grows 10x (a materialized workload would grow linearly).

The throughput tests are regression-guarded via ``bench_baseline.json``
(both min round time and the per-file peak RSS captured by the conftest
fixture); the memory test asserts the O(1) bound directly with
``ru_maxrss`` deltas inside this process.
"""

import resource

from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.schedulers.lru import LRUScheduler
from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator

N_FUNCTIONS = 100
N_INVOCATIONS = 10_000

#: Invocation counts for the O(1)-memory assertion: 10x growth.
MEM_SMALL = 50_000
MEM_LARGE = 500_000

#: Allowed peak-RSS growth (MB) between consuming the small and the large
#: stream.  A materialized 500k-invocation workload alone costs >100 MB of
#: Invocation objects, so a linear-memory regression blows far past this.
MEM_DELTA_BUDGET_MB = 64.0


def _generator(n_invocations: int) -> AzureTraceGenerator:
    return AzureTraceGenerator(AzureTraceConfig(
        n_functions=N_FUNCTIONS,
        n_invocations=n_invocations,
        duration_s=n_invocations / 100.0,
    ))


def _peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MB (Linux ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_stream_generation_throughput(benchmark):
    """Drain a 50k-invocation Azure stream (synthesis + window merge only)."""
    gen = _generator(5 * N_INVOCATIONS)

    def consume():
        count = 0
        for _ in gen.stream(seed=0):
            count += 1
        return count

    assert benchmark(consume) == 5 * N_INVOCATIONS
    # Chunked numpy synthesis must stay far above the simulator's
    # consumption rate, so generation never bottlenecks a replay.
    assert 5 * N_INVOCATIONS / benchmark.stats["mean"] > 50_000


def test_stream_replay_throughput(benchmark):
    """End-to-end streaming replay: stream -> run_stream -> bounded summary."""
    gen = _generator(N_INVOCATIONS)

    def run():
        sim = ClusterSimulator(SimulationConfig(
            pool_capacity_mb=4096.0, bounded_telemetry=True,
        ))
        return sim.run_stream(gen.stream(seed=0), LRUScheduler())

    result = benchmark(run)
    assert result.summary()["invocations"] == N_INVOCATIONS
    # Floor on invocations/sec: a 10M-invocation full-scale cell must stay
    # in minutes, which needs >~10k inv/s; 2k is the generous red line.
    assert N_INVOCATIONS / benchmark.stats["mean"] > 2_000


def test_stream_memory_is_o1():
    """Peak RSS stays flat while the streamed invocation count grows 10x.

    Consumes a 50k-invocation stream to establish the process peak, then a
    500k-invocation stream; the peak may only grow by a constant working
    set (chunks, one merge window, the frontier heap, per-function
    sources), never by the trace length.
    """
    small = 0
    for _ in _generator(MEM_SMALL).stream(seed=0):
        small += 1
    assert small == MEM_SMALL
    before = _peak_rss_mb()

    large = 0
    for _ in _generator(MEM_LARGE).stream(seed=0):
        large += 1
    assert large == MEM_LARGE
    delta = _peak_rss_mb() - before
    assert delta < MEM_DELTA_BUDGET_MB, (
        f"peak RSS grew {delta:.1f} MB while streaming 10x more "
        f"invocations (budget {MEM_DELTA_BUDGET_MB} MB): the arrival "
        "pipeline is no longer O(#functions)"
    )
