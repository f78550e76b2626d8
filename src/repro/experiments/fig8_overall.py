"""Figure 8: overall startup latency (a) and cold starts (b).

All 13 FStartBench functions, 400 invocations, per-type Poisson arrivals;
warm pool sized Tight / Moderate / Loose; five methods (LRU, FaasCache,
KeepAlive, Greedy-Match, MLCR).  The paper repeats 50x and reports averages;
repeat count here follows :class:`ExperimentScale` (``REPRO_SCALE=full`` for
long runs).

Expected shape: MLCR lowest total latency at every pool size with the
largest margin under Tight; Greedy-Match and MLCR far fewer cold starts than
the exact-match baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.report import ascii_table
from repro.analysis.stats import reduction_pct
from repro.experiments.cache import ExperimentCache, pool_sizes_cached
from repro.experiments.common import ExperimentScale, mlcr_policy_for
from repro.experiments.parallel import method_tasks, run_grid
from repro.workloads.fstartbench import overall_workload

METHOD_ORDER = ["LRU", "FaasCache", "KeepAlive", "Greedy-Match", "MLCR"]


@dataclass(frozen=True)
class Fig8Cell:
    """Mean results of one (method, pool size) cell."""

    method: str
    pool_label: str
    total_startup_s: float
    cold_starts: float
    evictions: float
    peak_warm_memory_mb: float


@dataclass(frozen=True)
class Fig8Result:
    cells: List[Fig8Cell]
    capacities: Dict[str, float]
    repeats: int

    def cell(self, method: str, pool_label: str) -> Fig8Cell:
        """The (method, pool size) cell of the result."""
        for c in self.cells:
            if c.method == method and c.pool_label == pool_label:
                return c
        raise KeyError((method, pool_label))

    def mlcr_reduction_vs(self, baseline: str, pool_label: str) -> float:
        """Percent latency reduction of MLCR vs a baseline at a pool size."""
        base = self.cell(baseline, pool_label).total_startup_s
        ours = self.cell("MLCR", pool_label).total_startup_s
        return reduction_pct(base, ours)


def run(
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> Fig8Result:
    """Run the experiment; returns its result dataclass.

    Every cell, the trained MLCR policies' included, is a
    :func:`~repro.experiments.parallel.run_grid` task; ``jobs``,
    ``cache`` and ``lanes`` go to it and change no result.
    """
    scale = scale or ExperimentScale.from_env()
    capacities = pool_sizes_cached("Overall", 0, cache)
    seeds = range(scale.repeats)

    tasks = []
    for pool_label, capacity in capacities.items():
        policy = mlcr_policy_for(
            "Overall", lambda s: overall_workload(seed=s), capacity, scale
        )
        tasks += method_tasks("Overall", pool_label, capacity, seeds,
                              policy=policy)
    grid = run_grid(tasks, jobs=jobs, cache=cache, lanes=lanes)

    cells: List[Fig8Cell] = []
    for pool_label in capacities:
        for method in METHOD_ORDER:
            rows = [
                c.summary for c in grid
                if c.method == method and c.task.pool_label == pool_label
            ]
            cells.append(
                Fig8Cell(
                    method=method,
                    pool_label=pool_label,
                    **{
                        name: float(np.mean([r[name] for r in rows]))
                        for name in ("total_startup_s", "cold_starts",
                                     "evictions", "peak_warm_memory_mb")
                    },
                )
            )
    return Fig8Result(cells=cells, capacities=capacities,
                      repeats=scale.repeats)


def report(result: Fig8Result) -> str:
    """Render the result as the paper-style ASCII report."""
    rows_latency = []
    rows_cold = []
    for method in METHOD_ORDER:
        lat_row: List[object] = [method]
        cold_row: List[object] = [method]
        for pool_label in result.capacities:
            cell = result.cell(method, pool_label)
            lat_row.append(f"{cell.total_startup_s:.1f}")
            cold_row.append(f"{cell.cold_starts:.1f}")
        rows_latency.append(lat_row)
        rows_cold.append(cold_row)
    headers = ["method", *result.capacities.keys()]
    lines = [
        f"Fig 8 (repeats={result.repeats}; capacities: "
        + ", ".join(f"{k}={v:.0f}MB" for k, v in result.capacities.items())
        + ")",
        "",
        ascii_table(headers, rows_latency,
                    title="(a) total startup latency [s]"),
        "",
        ascii_table(headers, rows_cold, title="(b) cold starts [count]"),
        "",
        "MLCR latency reduction vs baselines:",
    ]
    for baseline in METHOD_ORDER[:-1]:
        per_pool = ", ".join(
            f"{pool}: {result.mlcr_reduction_vs(baseline, pool):+.0f}%"
            for pool in result.capacities
        )
        lines.append(f"  vs {baseline:12s} {per_pool}")
    return "\n".join(lines)
