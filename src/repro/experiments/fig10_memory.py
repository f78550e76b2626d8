"""Figure 10: warm-resource consumption under the Loose pool size.

Peak warm-pool memory and eviction counts per method.  The paper's shape:
the exact-match baselines (LRU, FaasCache, KeepAlive) fill the whole pool
and trigger evictions/rejections, while the multi-level methods (Greedy,
MLCR) recycle containers and do not need to exhaust the pool; Greedy
consumes the least memory of all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.report import ascii_table
from repro.experiments.cache import ExperimentCache, pool_sizes_cached
from repro.experiments.common import ExperimentScale, mlcr_policy_for
from repro.experiments.fig8_overall import METHOD_ORDER
from repro.experiments.parallel import method_tasks, run_grid
from repro.workloads.fstartbench import overall_workload


@dataclass(frozen=True)
class Fig10Row:
    method: str
    peak_warm_memory_mb: float
    pool_utilization: float   # peak / capacity
    evictions: float
    keep_alive_rejections: float
    total_startup_s: float


@dataclass(frozen=True)
class Fig10Result:
    rows: List[Fig10Row]
    capacity_mb: float

    def row(self, method: str) -> Fig10Row:
        """The row for one method."""
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def run(
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> Fig10Result:
    """Run the experiment; returns its result dataclass.

    Every cell is a :func:`~repro.experiments.parallel.run_grid` task;
    ``jobs``, ``cache`` and ``lanes`` go to it and change no result.
    """
    scale = scale or ExperimentScale.from_env()
    capacity = pool_sizes_cached("Overall", 0, cache)["Loose"]
    policy = mlcr_policy_for(
        "Overall", lambda s: overall_workload(seed=s), capacity, scale
    )
    tasks = method_tasks("Overall", "Loose", capacity, range(scale.repeats),
                         policy=policy)

    acc: Dict[str, List] = {m: [] for m in METHOD_ORDER}
    for cell in run_grid(tasks, jobs=jobs, cache=cache, lanes=lanes):
        acc[cell.method].append(
            tuple(cell.summary[name] for name in (
                "peak_warm_memory_mb", "evictions", "keep_alive_rejections",
                "total_startup_s",
            ))
        )

    rows = []
    for method in METHOD_ORDER:
        data = np.array(acc[method])
        rows.append(
            Fig10Row(
                method=method,
                peak_warm_memory_mb=float(data[:, 0].mean()),
                pool_utilization=float(data[:, 0].mean() / capacity),
                evictions=float(data[:, 1].mean()),
                keep_alive_rejections=float(data[:, 2].mean()),
                total_startup_s=float(data[:, 3].mean()),
            )
        )
    return Fig10Result(rows=rows, capacity_mb=capacity)


def report(result: Fig10Result) -> str:
    """Render the result as the paper-style ASCII report."""
    rows = [
        [
            r.method,
            f"{r.peak_warm_memory_mb:.0f}",
            f"{r.pool_utilization:.0%}",
            f"{r.evictions:.1f}",
            f"{r.keep_alive_rejections:.1f}",
            f"{r.total_startup_s:.1f}",
        ]
        for r in result.rows
    ]
    return ascii_table(
        ["method", "peak warm MB", "pool util", "evictions",
         "rejections", "total startup s"],
        rows,
        title=(
            f"Fig 10: warm resource consumption, Loose pool "
            f"({result.capacity_mb:.0f}MB)"
        ),
    )
