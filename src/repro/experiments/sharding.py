"""Extension experiment: global vs per-worker warm pools.

The paper's platform reserves warm memory *per worker* but schedules against
the union of idle containers; most simulators (including the paper's
evaluation) treat the pool as one global budget.  This experiment quantifies
the difference: the same total capacity, partitioned across 1..N workers,
under the exact-match and multi-level schedulers.

Expected shape: fragmentation can only hurt -- a container must fit in *its
worker's* shard, so sharded pools evict more and warm-hit less; the effect
grows with shard count and bites hardest at Tight capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import ascii_table
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.common import ExperimentScale, pool_sizes
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.lru import LRUScheduler
from repro.workloads.fstartbench import overall_workload

WORKER_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class ShardingRow:
    """Mean results for one (method, worker-count) configuration."""

    method: str
    n_workers: int
    total_startup_s: float
    cold_starts: float
    evictions: float


@dataclass(frozen=True)
class ShardingResult:
    """All rows plus the capacity used."""

    rows: List[ShardingRow]
    capacity_mb: float

    def row(self, method: str, n_workers: int) -> ShardingRow:
        """The row for one (method, worker-count) pair."""
        for r in self.rows:
            if r.method == method and r.n_workers == n_workers:
                return r
        raise KeyError((method, n_workers))


def run(
    scale: Optional[ExperimentScale] = None,
    worker_counts: Sequence[int] = WORKER_COUNTS,
) -> ShardingResult:
    """Sweep worker counts at Tight capacity for LRU and Greedy-Match."""
    scale = scale or ExperimentScale.from_env()
    capacity = pool_sizes(overall_workload(seed=0))["Tight"]
    rows: List[ShardingRow] = []
    for n_workers in worker_counts:
        for scheduler_cls in (LRUScheduler, GreedyMatchScheduler):
            acc: Dict[str, List[float]] = {"t": [], "c": [], "e": []}
            for seed in range(scale.repeats):
                workload = overall_workload(seed=seed)
                scheduler = scheduler_cls()
                sim = ClusterSimulator(
                    SimulationConfig(
                        pool_capacity_mb=capacity,
                        n_workers=n_workers,
                        per_worker_pools=n_workers > 1,
                    ),
                    scheduler.make_eviction_policy(),
                )
                t = sim.run(workload, scheduler).telemetry
                acc["t"].append(t.total_startup_latency_s)
                acc["c"].append(t.cold_starts)
                acc["e"].append(t.evictions)
            rows.append(ShardingRow(
                method=scheduler_cls.name,
                n_workers=n_workers,
                total_startup_s=float(np.mean(acc["t"])),
                cold_starts=float(np.mean(acc["c"])),
                evictions=float(np.mean(acc["e"])),
            ))
    return ShardingResult(rows=rows, capacity_mb=capacity)


def report(result: ShardingResult) -> str:
    """Render the sweep as an ASCII table."""
    table = [
        [r.method, str(r.n_workers), f"{r.total_startup_s:.1f}",
         f"{r.cold_starts:.1f}", f"{r.evictions:.1f}"]
        for r in result.rows
    ]
    return ascii_table(
        ["method", "workers", "total startup [s]", "cold starts",
         "evictions"],
        table,
        title=(f"Extension: pool sharding at Tight capacity "
               f"({result.capacity_mb:.0f}MB total)"),
    )
