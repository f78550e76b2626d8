"""Figure 1: startup-time breakdown under C-style vs W-style reuse.

The paper's motivating microbenchmark: after function F1 runs, its container
is kept warm and four other functions are invoked.  "C" reuses warm
containers only for the *same* function (so F2--F5 all cold-start); "W"
always adopts the warm container, pulling only missing packages.  The paper
reports W accelerating startup by up to 14x over C.

We reproduce the scenario inside the cost model: the warm container hosts the
``analytics-numpy`` stack (Debian + Python + numpy-family runtime) and the
probe functions are the Debian/Python family plus the ML function -- the
closest FStartBench analogue of the original figure's function set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.breakdown import breakdown_table
from repro.containers.costmodel import StartupBreakdown, StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.workloads.functions import function_by_id

#: The warm container's function (the figure's F1).
WARM_FUNC_ID = 6
#: The probe functions (the figure's F2..F5).
PROBE_FUNC_IDS = (5, 7, 8, 13)


@dataclass(frozen=True)
class Fig1Result:
    """Per-probe breakdowns for both reuse styles, plus speedups."""

    cold: Dict[str, StartupBreakdown]      # "C": cold start
    warm: Dict[str, StartupBreakdown]      # "W": reuse F1's container
    match_levels: Dict[str, MatchLevel]
    speedups: Dict[str, float]

    @property
    def max_speedup(self) -> float:
        return max(self.speedups.values())


def run(cost_model: StartupCostModel | None = None) -> Fig1Result:
    """Compute the Fig. 1 breakdowns from the cost model."""
    model = cost_model or StartupCostModel()
    warm_image = function_by_id(WARM_FUNC_ID).image
    cold: Dict[str, StartupBreakdown] = {}
    warm: Dict[str, StartupBreakdown] = {}
    matches: Dict[str, MatchLevel] = {}
    speedups: Dict[str, float] = {}
    for func_id in PROBE_FUNC_IDS:
        spec = function_by_id(func_id)
        label = f"F{func_id}:{spec.name}"
        match = match_level(spec.image, warm_image)
        c = model.breakdown(spec.image, MatchLevel.NO_MATCH, spec.function_init_s)
        w = model.breakdown(spec.image, match, spec.function_init_s)
        cold[label] = c
        warm[label] = w
        matches[label] = match
        speedups[label] = c.total_s / w.total_s if w.total_s > 0 else float("inf")
    return Fig1Result(cold=cold, warm=warm, match_levels=matches,
                      speedups=speedups)


def report(result: Fig1Result) -> str:
    """Render the figure as two phase tables plus speedups."""
    lines: List[str] = [
        "Fig 1: startup breakdown reusing F1's warm container",
        "",
        breakdown_table(result.cold, title='"C" (cold start, same-function reuse only)'),
        "",
        breakdown_table(result.warm, title='"W" (always adopt the warm container)'),
        "",
        "speedups (C total / W total):",
    ]
    for label, speedup in result.speedups.items():
        lines.append(
            f"  {label}: {speedup:5.1f}x  "
            f"(match: {result.match_levels[label].name})"
        )
    lines.append(f"  max speedup: {result.max_speedup:.1f}x (paper: up to 14x)")
    return "\n".join(lines)
