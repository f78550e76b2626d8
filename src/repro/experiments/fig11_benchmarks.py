"""Figure 11: benchmark evaluation across workload features.

Three subfigures, each a box chart of total startup latency over pool sizes
{25, 50, 75, 100}% of Loose and repeated seeds:

* (a) function similarity: HI-Sim vs LO-Sim,
* (b) package-size variance: LO-Var vs HI-Var,
* (c) arrival patterns: Uniform / Peak / Random.

Expected shapes: every method does better on HI-Sim than LO-Sim and on
LO-Var than HI-Var; Peak is the hardest arrival pattern; MLCR is lowest
throughout with the largest margins on the hard variants (LO-Sim, HI-Var,
Peak).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import ascii_table
from repro.analysis.stats import BoxStats, box_stats
from repro.experiments.cache import ExperimentCache, pool_sizes_cached
from repro.experiments.common import ExperimentScale, mlcr_policy_for
from repro.experiments.fig8_overall import METHOD_ORDER
from repro.experiments.parallel import method_tasks, run_grid
from repro.workloads.fstartbench import (
    hi_sim_workload,
    hi_var_workload,
    lo_sim_workload,
    lo_var_workload,
    peak_workload,
    random_workload,
    uniform_workload,
)
from repro.workloads.workload import Workload

POOL_FRACTIONS = (0.25, 0.50, 0.75, 1.00)

SUBFIGURES: Dict[str, Dict[str, Callable[..., Workload]]] = {
    "a:similarity": {"HI-Sim": hi_sim_workload, "LO-Sim": lo_sim_workload},
    "b:variance": {"LO-Var": lo_var_workload, "HI-Var": hi_var_workload},
    "c:arrival": {
        "Uniform": uniform_workload,
        "Peak": peak_workload,
        "Random": random_workload,
    },
}


@dataclass(frozen=True)
class Fig11Box:
    """Latency distribution of one (workload, method) over pools x seeds."""

    workload: str
    method: str
    stats: BoxStats
    samples: Tuple[float, ...]


@dataclass(frozen=True)
class Fig11Result:
    subfigure: str
    boxes: List[Fig11Box]
    loose_mb: Dict[str, float]
    repeats: int
    pool_fractions: Tuple[float, ...] = POOL_FRACTIONS

    def box(self, workload: str, method: str) -> Fig11Box:
        """The (workload, method) box of the result."""
        for b in self.boxes:
            if b.workload == workload and b.method == method:
                return b
        raise KeyError((workload, method))

    def mean_of(self, workload: str, method: str) -> float:
        """Mean total startup latency of one (workload, method) box."""
        return self.box(workload, method).stats.mean


def run_subfigure(
    subfigure: str,
    scale: Optional[ExperimentScale] = None,
    pool_fractions: Optional[Sequence[float]] = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> Fig11Result:
    """Run one of ``"a:similarity"``, ``"b:variance"``, ``"c:arrival"``.

    Every cell is a :func:`~repro.experiments.parallel.run_grid` task;
    ``jobs``, ``cache`` and ``lanes`` go to it and change no result.
    """
    if subfigure not in SUBFIGURES:
        raise KeyError(
            f"unknown subfigure {subfigure!r}; choose from {sorted(SUBFIGURES)}"
        )
    scale = scale or ExperimentScale.from_env()
    if pool_fractions is None:
        pool_fractions = scale.fig11_pool_fractions
    builders = SUBFIGURES[subfigure]
    seeds = range(scale.repeats)

    tasks = []
    loose_by_workload: Dict[str, float] = {}
    for wl_name, builder in builders.items():
        loose = pool_sizes_cached(wl_name, 0, cache)["Loose"]
        loose_by_workload[wl_name] = loose
        for frac in pool_fractions:
            capacity = frac * loose
            policy = mlcr_policy_for(
                wl_name, lambda s, b=builder: b(seed=s), capacity, scale
            )
            tasks += method_tasks(wl_name, f"{frac:.0%}", capacity, seeds,
                                  policy=policy)
    samples: Dict[Tuple[str, str], List[float]] = {}
    for cell in run_grid(tasks, jobs=jobs, cache=cache, lanes=lanes):
        samples.setdefault((cell.task.workload, cell.method), []).append(
            cell.total_startup_s
        )

    boxes = [
        Fig11Box(
            workload=wl_name,
            method=method,
            stats=box_stats(samples[wl_name, method]),
            samples=tuple(samples[wl_name, method]),
        )
        for wl_name in builders
        for method in METHOD_ORDER
    ]
    return Fig11Result(
        subfigure=subfigure,
        boxes=boxes,
        loose_mb=loose_by_workload,
        repeats=scale.repeats,
        pool_fractions=tuple(pool_fractions),
    )


def report(result: Fig11Result) -> str:
    """Render the result as the paper-style ASCII report."""
    rows = []
    workloads = list(dict.fromkeys(b.workload for b in result.boxes))
    for wl in workloads:
        for method in METHOD_ORDER:
            s = result.box(wl, method).stats
            rows.append(
                [
                    wl,
                    method,
                    f"{s.minimum:.1f}",
                    f"{s.q1:.1f}",
                    f"{s.median:.1f}",
                    f"{s.q3:.1f}",
                    f"{s.maximum:.1f}",
                    f"{s.mean:.1f}",
                ]
            )
    return ascii_table(
        ["workload", "method", "min", "q1", "median", "q3", "max", "mean"],
        rows,
        title=(
            f"Fig 11{result.subfigure}: total startup latency [s] over "
            f"pool sizes {[f'{f:.0%}' for f in result.pool_fractions]} x "
            f"{result.repeats} seeds"
        ),
    )
