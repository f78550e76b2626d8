"""Section VI-D: scheduler overhead.

Measures the wall-clock cost of one MLCR scheduling decision (state encoding
plus a policy-network forward pass) and compares it to the startup-latency
savings each decision buys.  The paper reports 3--4 ms per decision on a
V100; a numpy forward pass on CPU lands in the same order of magnitude.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.common import (
    ExperimentScale,
    evaluate_scheduler,
    pool_sizes,
    train_mlcr_for,
)
from repro.experiments.parallel import BASELINE_KEYS, build_scheduler
from repro.workloads.fstartbench import overall_workload


@dataclass(frozen=True)
class OverheadResult:
    mean_decision_ms: float
    p95_decision_ms: float
    decisions: int
    mean_saving_per_decision_s: float
    overhead_fraction: float  # decision time / mean saving

    @property
    def worthwhile(self) -> bool:
        """Scheduling pays for itself when the saving dwarfs the overhead."""
        return self.overhead_fraction < 0.5


def run(
    scale: Optional[ExperimentScale] = None, eval_seed: int = 0
) -> OverheadResult:
    """Run the experiment; returns its result dataclass."""
    scale = scale or ExperimentScale.from_env()
    workload = overall_workload(seed=eval_seed)
    capacity = pool_sizes(workload)["Tight"]
    mlcr = train_mlcr_for(
        "Overall", lambda s: overall_workload(seed=s), capacity, scale
    )

    # Time every decision by wrapping decide_pool().
    times: list = []
    original_decide = mlcr.decide_pool

    def timed_decide(pool, invocation, cost_model):
        t0 = time.perf_counter()
        decision = original_decide(pool, invocation, cost_model)
        times.append(time.perf_counter() - t0)
        return decision

    mlcr.reset()
    mlcr.decide_pool = timed_decide  # type: ignore[method-assign]
    try:
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=capacity),
            mlcr.make_eviction_policy(),
        )
        mlcr_result = sim.run(workload, mlcr)
    finally:
        del mlcr.decide_pool  # restore the bound method

    # Savings: compare against the best exact-match baseline.
    baseline_latency = min(
        evaluate_scheduler(
            build_scheduler(key), workload, capacity, "Tight"
        ).total_startup_s
        for key in BASELINE_KEYS[:3]  # LRU, FaasCache, KeepAlive
    )
    saving = baseline_latency - mlcr_result.telemetry.total_startup_latency_s
    per_decision_saving = saving / max(1, len(workload))

    arr = np.array(times)
    mean_ms = float(arr.mean() * 1e3)
    return OverheadResult(
        mean_decision_ms=mean_ms,
        p95_decision_ms=float(np.percentile(arr, 95) * 1e3),
        decisions=len(times),
        mean_saving_per_decision_s=per_decision_saving,
        overhead_fraction=(mean_ms / 1e3) / max(1e-9, per_decision_saving),
    )


def report(result: OverheadResult) -> str:
    """Render the result as the paper-style ASCII report."""
    return "\n".join(
        [
            "Section VI-D: MLCR scheduling overhead",
            f"  decisions measured:        {result.decisions}",
            f"  mean decision time:        {result.mean_decision_ms:.2f} ms "
            "(paper: 3-4 ms on V100)",
            f"  p95 decision time:         {result.p95_decision_ms:.2f} ms",
            f"  mean saving per decision:  "
            f"{result.mean_saving_per_decision_s * 1e3:.1f} ms",
            f"  overhead / saving:         {result.overhead_fraction:.3f}",
            f"  scheduling worthwhile:     {result.worthwhile}",
        ]
    )


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    print(report(run()))
