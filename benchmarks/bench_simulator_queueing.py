"""Micro-benchmarks for the layered decision loop (not a paper figure).

Guards the refactored control-plane/data-plane hot path: the policy driver
must stay as fast as the old monolith with admission control disabled, and
the deterministic slot-heap admission must add only bounded overhead when a
worker concurrency limit is enforced.
"""

from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.fstartbench import hi_sim_workload, overall_workload


def test_decision_loop_no_queueing(benchmark):
    """Incremental decision loop, admission control disabled.

    Exercises the layered next_decision_point/apply_decision path directly
    (the same loop the DRL environment drives) rather than batch run().
    """
    workload = overall_workload(seed=0)

    def run():
        scheduler = GreedyMatchScheduler()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2048.0),
            scheduler.make_eviction_policy(),
        )
        sim.load(workload)
        while (ctx := sim.next_decision_point()) is not None:
            sim.apply_decision(
                scheduler.decide(ctx.pool, ctx.invocation, ctx.cost_model)
            )
        return sim.finish()

    result = benchmark(run)
    assert result.telemetry.n_invocations == 400
    assert "total_queueing_s" not in result.summary()
    # Must match the batch-mode budget: the layering adds no hot-path cost.
    assert benchmark.stats["mean"] < 0.5


def test_simulator_with_queueing(benchmark):
    """End-to-end HI-Sim run with a finite per-worker concurrency limit.

    Admission goes through the per-worker slot heaps on every startup, so
    this measures the full queueing-enabled decision loop.
    """
    workload = hi_sim_workload(seed=0)

    def run():
        scheduler = GreedyMatchScheduler()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=2048.0, n_workers=4,
                             worker_concurrency=2),
            scheduler.make_eviction_policy(),
        )
        return sim.run(workload, scheduler)

    result = benchmark(run)
    assert result.summary()["total_queueing_s"] > 0
    # Slot-heap admission is O(log limit) per startup: the queueing path
    # must stay within ~2x of the unconstrained simulator budget.
    assert benchmark.stats["mean"] < 0.5
