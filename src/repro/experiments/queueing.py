"""Extension experiment: worker concurrency limits and startup queueing.

The paper's evaluation treats workers as latency-transparent: a cold start
costs the same whether one or a hundred containers are starting at once.
Real platforms cap per-worker concurrency (OpenWhisk's invoker slots), so
bursts queue and the *observed* startup latency includes the wait for a
slot.  This experiment turns on the simulator's admission control and
sweeps the two platform knobs it introduces:

* ``worker_concurrency`` -- slots per worker (startup + execution hold a
  slot); lower limits queue more of HI-Sim's bursty arrivals;
* ``n_workers`` -- cluster size at a fixed per-worker limit; with real
  contention, worker count finally moves mean startup latency.

Expected shape: queueing delay grows sharply as the limit tightens, and
adding workers at a fixed limit strictly reduces both the queueing and the
mean startup latency -- the knob the no-contention simulator could never
show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import ascii_table
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.common import ExperimentScale
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.fstartbench import hi_sim_workload

CONCURRENCY_LIMITS = (1, 2, 4)
WORKER_COUNTS = (1, 2, 4, 8)
POOL_CAPACITY_MB = 2048.0


@dataclass(frozen=True)
class QueueingRow:
    """Mean results for one (n_workers, concurrency) configuration."""

    n_workers: int
    concurrency: int
    mean_startup_s: float
    mean_queueing_s: float
    queued_starts: float
    max_queue_depth: float
    mean_utilization: float


@dataclass(frozen=True)
class QueueingResult:
    """All rows of the queueing sweep."""

    rows: List[QueueingRow]

    def row(self, n_workers: int, concurrency: int) -> QueueingRow:
        """The row for one (worker-count, concurrency-limit) pair."""
        for r in self.rows:
            if r.n_workers == n_workers and r.concurrency == concurrency:
                return r
        raise KeyError((n_workers, concurrency))


def run(
    scale: Optional[ExperimentScale] = None,
    worker_counts: Sequence[int] = WORKER_COUNTS,
    concurrency_limits: Sequence[int] = CONCURRENCY_LIMITS,
) -> QueueingResult:
    """Sweep worker count x concurrency limit on HI-Sim under Greedy-Match."""
    scale = scale or ExperimentScale.from_env()
    rows: List[QueueingRow] = []
    for n_workers in worker_counts:
        for limit in concurrency_limits:
            acc: Dict[str, List[float]] = {
                "s": [], "q": [], "n": [], "d": [], "u": [],
            }
            for seed in range(scale.repeats):
                workload = hi_sim_workload(seed=seed)
                scheduler = GreedyMatchScheduler()
                sim = ClusterSimulator(
                    SimulationConfig(
                        pool_capacity_mb=POOL_CAPACITY_MB,
                        n_workers=n_workers,
                        worker_concurrency=limit,
                    ),
                    scheduler.make_eviction_policy(),
                )
                t = sim.run(workload, scheduler).telemetry
                q = t.queueing_summary()
                acc["s"].append(t.mean_startup_latency_s)
                acc["q"].append(q["mean_queueing_s"])
                acc["n"].append(q["queued_starts"])
                acc["d"].append(q["max_queue_depth"])
                acc["u"].append(q["mean_worker_utilization"])
            rows.append(QueueingRow(
                n_workers=n_workers,
                concurrency=limit,
                mean_startup_s=float(np.mean(acc["s"])),
                mean_queueing_s=float(np.mean(acc["q"])),
                queued_starts=float(np.mean(acc["n"])),
                max_queue_depth=float(np.mean(acc["d"])),
                mean_utilization=float(np.mean(acc["u"])),
            ))
    return QueueingResult(rows=rows)


def report(result: QueueingResult) -> str:
    """Render the sweep as an ASCII table."""
    table = [
        [str(r.n_workers), str(r.concurrency), f"{r.mean_startup_s:.3f}",
         f"{r.mean_queueing_s:.3f}", f"{r.queued_starts:.1f}",
         f"{r.max_queue_depth:.1f}", f"{100 * r.mean_utilization:.1f}%"]
        for r in result.rows
    ]
    return ascii_table(
        ["workers", "limit", "mean startup [s]", "mean queueing [s]",
         "queued starts", "max depth", "utilization"],
        table,
        title=("Extension: worker concurrency limits on HI-Sim "
               f"(Greedy-Match, {POOL_CAPACITY_MB:.0f}MB pool)"),
    )
