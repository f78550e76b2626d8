"""Ablations of the MLCR design choices (DESIGN.md section 5).

Four variants trained on the same workload/pool and compared on held-out
seeds:

* **full** -- attention trunk + action mask + greedy demonstration seeding;
* **no-mask** -- the Section IV-C mask removed (invalid actions become cold
  starts and pollute exploration/targets);
* **mlp** -- attention trunk replaced by a flat MLP;
* **no-demos** -- replay buffer not seeded with Greedy-Match rollouts.

Also reports the Lookahead clairvoyant heuristic as a headroom reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.analysis.report import ascii_table
from repro.cluster.simulator import SimulationConfig
from repro.core.mlcr import train_mlcr_scheduler
from repro.experiments.cache import ExperimentCache, pool_sizes_cached
from repro.experiments.common import (
    ExperimentScale,
    make_training_factory,
    register_policy,
)
from repro.experiments.parallel import method_tasks, run_grid
from repro.workloads.fstartbench import overall_workload

VARIANTS = ("full", "no-mask", "mlp", "no-demos")


@dataclass(frozen=True)
class AblationRow:
    variant: str
    mean_total_startup_s: float
    mean_cold_starts: float
    final_training_latency_s: float


@dataclass(frozen=True)
class AblationResult:
    rows: List[AblationRow]
    greedy_total_s: float
    lookahead_total_s: float
    capacity_mb: float

    def row(self, variant: str) -> AblationRow:
        """The row for one method."""
        for r in self.rows:
            if r.variant == variant:
                return r
        raise KeyError(variant)


def _variant_config(base, variant: str):
    if variant == "full":
        return base
    if variant == "no-mask":
        return replace(base, use_mask=False)
    if variant == "mlp":
        return replace(base, use_attention=False)
    if variant == "no-demos":
        return replace(base, demo_episodes=0)
    raise KeyError(variant)


def run(
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> AblationResult:
    """Run the experiment; returns its result dataclass.

    Each trained variant, Greedy-Match and Lookahead are evaluated as
    :func:`~repro.experiments.parallel.run_grid` tasks; ``jobs``,
    ``cache`` and ``lanes`` go to it and change no result.
    """
    scale = scale or ExperimentScale.from_env()
    capacity = pool_sizes_cached("Overall", 0, cache)["Tight"]
    base_cfg = scale.mlcr_config()
    eval_seeds = range(scale.repeats)

    tasks = []
    final_latencies = []
    for variant in VARIANTS:
        cfg = _variant_config(base_cfg, variant)
        scheduler, history = train_mlcr_scheduler(
            workload_factory=make_training_factory(
                lambda s: overall_workload(seed=s), scale
            ),
            sim_config=SimulationConfig(pool_capacity_mb=capacity),
            config=cfg,
        )
        final_latencies.append(history.episode_latencies[-1])
        tasks += method_tasks("Overall", "Tight", capacity, eval_seeds,
                              keys=(), policy=register_policy(scheduler, cfg))
    tasks += method_tasks("Overall", "Tight", capacity, eval_seeds,
                          keys=("greedy", "lookahead"))
    cells = run_grid(tasks, jobs=jobs, cache=cache, lanes=lanes)

    n = len(eval_seeds)
    rows: List[AblationRow] = []
    for i, (variant, final) in enumerate(zip(VARIANTS, final_latencies)):
        own = cells[i * n:(i + 1) * n]
        rows.append(
            AblationRow(
                variant=variant,
                mean_total_startup_s=float(
                    np.mean([c.total_startup_s for c in own])
                ),
                mean_cold_starts=float(np.mean([c.cold_starts for c in own])),
                final_training_latency_s=final,
            )
        )

    def heuristic_mean(key: str) -> float:
        return float(np.mean(
            [c.total_startup_s for c in cells if c.task.scheduler == key]
        ))

    return AblationResult(
        rows=rows,
        greedy_total_s=heuristic_mean("greedy"),
        lookahead_total_s=heuristic_mean("lookahead"),
        capacity_mb=capacity,
    )


def report(result: AblationResult) -> str:
    """Render the result as the paper-style ASCII report."""
    rows = [
        [
            r.variant,
            f"{r.mean_total_startup_s:.1f}",
            f"{r.mean_cold_starts:.1f}",
            f"{r.final_training_latency_s:.1f}",
        ]
        for r in result.rows
    ]
    table = ascii_table(
        ["variant", "eval total startup s", "cold starts",
         "final train latency s"],
        rows,
        title=f"MLCR ablations (Tight pool, {result.capacity_mb:.0f}MB)",
    )
    return "\n".join(
        [
            table,
            "",
            f"Greedy-Match reference:  {result.greedy_total_s:.1f}s",
            f"Lookahead (clairvoyant): {result.lookahead_total_s:.1f}s",
        ]
    )
