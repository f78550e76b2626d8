"""Figure 9: cumulative startup latency / cold starts, Greedy vs MLCR, Loose.

The paper's deep-dive into *why* fewer cold starts does not imply lower
latency: along the arrival stream, Greedy-Match occasionally grabs a
container that MLCR deliberately leaves warm for a later, deeper match.  The
figure plots cumulative total startup latency and cumulative cold starts
against the arrival index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.experiments.common import (
    ExperimentScale,
    evaluate_scheduler,
    pool_sizes,
    train_mlcr_for,
)
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.fstartbench import overall_workload


@dataclass(frozen=True)
class Fig9Result:
    arrival_index: np.ndarray
    greedy_cum_latency: np.ndarray
    mlcr_cum_latency: np.ndarray
    greedy_cum_cold: np.ndarray
    mlcr_cum_cold: np.ndarray
    capacity_mb: float

    @property
    def final_gap_s(self) -> float:
        """Final cumulative-latency gap (positive = MLCR lower)."""
        return float(self.greedy_cum_latency[-1] - self.mlcr_cum_latency[-1])


def run(
    scale: Optional[ExperimentScale] = None, eval_seed: int = 0
) -> Fig9Result:
    """Run the experiment; returns its result dataclass."""
    scale = scale or ExperimentScale.from_env()
    workload = overall_workload(seed=eval_seed)
    capacity = pool_sizes(workload)["Loose"]

    greedy_result = evaluate_scheduler(
        GreedyMatchScheduler(), workload, capacity, "Loose"
    )
    mlcr = train_mlcr_for(
        "Overall", lambda s: overall_workload(seed=s), capacity, scale
    )
    mlcr_result = evaluate_scheduler(mlcr, workload, capacity, "Loose")

    g_t, m_t = greedy_result.result.telemetry, mlcr_result.result.telemetry
    return Fig9Result(
        arrival_index=np.arange(1, len(workload) + 1),
        greedy_cum_latency=g_t.cumulative_latency(),
        mlcr_cum_latency=m_t.cumulative_latency(),
        greedy_cum_cold=g_t.cumulative_cold_starts(),
        mlcr_cum_cold=m_t.cumulative_cold_starts(),
        capacity_mb=capacity,
    )


def report(result: Fig9Result, samples: int = 10) -> str:
    """Print the two series at evenly spaced arrival indices."""
    n = len(result.arrival_index)
    picks = np.unique(np.linspace(0, n - 1, samples).astype(int))
    lines = [
        f"Fig 9: cumulative series under Loose pool "
        f"({result.capacity_mb:.0f}MB)",
        "",
        f"{'arrival':>8} | {'greedy lat':>11} {'mlcr lat':>11} | "
        f"{'greedy cold':>11} {'mlcr cold':>10}",
    ]
    for i in picks:
        lines.append(
            f"{result.arrival_index[i]:>8} | "
            f"{result.greedy_cum_latency[i]:>10.1f}s "
            f"{result.mlcr_cum_latency[i]:>10.1f}s | "
            f"{result.greedy_cum_cold[i]:>11d} "
            f"{result.mlcr_cum_cold[i]:>10d}"
        )
    lines.append("")
    lines.append(
        f"final latency gap (greedy - MLCR): {result.final_gap_s:+.1f}s "
        "(paper: +3.8s)"
    )
    return "\n".join(lines)
