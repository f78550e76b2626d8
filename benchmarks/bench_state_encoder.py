"""Micro-benchmark for the DRL state encoder (not a paper figure).

The encoder runs once per MLCR decision, i.e. hundreds of thousands of
times per training session.  This measures encode throughput against a
100-container warm pool (read through its match index, as in the
simulator) across a rotation of FStartBench invocations, so the per-image
caches see the realistic mixed-hit pattern.
"""

from repro.cluster.pool import PoolSet
from repro.containers.container import Container, ContainerState
from repro.containers.costmodel import StartupCostModel
from repro.core.state import StateEncoder
from repro.workloads.functions import fstartbench_functions
from repro.workloads.workload import Invocation

N_CONTAINERS = 100
N_INVOCATIONS = 20


def _make_decision_points():
    """``(pool, invocation, cost_model)`` triples, one per invocation."""
    specs = fstartbench_functions()
    pool = PoolSet(capacity_mb=float("inf"))
    for i in range(N_CONTAINERS):
        pool.add(
            Container(
                container_id=i,
                image=specs[i % len(specs)].image,
                state=ContainerState.IDLE,
                last_used_at=float(i),
            ),
            shard_index=0,
        )
    cost_model = StartupCostModel()
    return [
        (
            pool,
            Invocation(
                invocation_id=i,
                spec=specs[i % len(specs)],
                arrival_time=float(N_CONTAINERS),
                execution_time_s=0.5,
            ),
            cost_model,
        )
        for i in range(N_INVOCATIONS)
    ]


def test_state_encode_throughput(benchmark):
    """Encode 20 decision points against a 100-container pool."""
    points = _make_decision_points()
    encoder = StateEncoder(n_slots=12)

    def run():
        for pool, invocation, cost_model in points:
            encoder.encode(pool, invocation, cost_model)

    benchmark(run)
    # MLCR training encodes at every simulated decision: keep a 20-encode
    # batch comfortably in the low-millisecond range.
    assert benchmark.stats["mean"] < 0.05
