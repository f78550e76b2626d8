"""Figure 2: why best-effort (greedy) container reuse is not optimal.

The paper's example: two warm containers C1 and C2; F3 arrives first and
greedily takes the container that minimizes *its own* startup (Policy 1), but
that container was the only viable deep match for the soon-arriving F2, so
the *total* startup time ends up higher than the globally-planned Policy 2.

We reconstruct the scenario with FStartBench functions:

* C1 holds the ``hello-python-debian`` stack (Debian + Python + Flask);
* C2 holds the ``comm-cpp`` stack (CentOS + C++) -- irrelevant to both probes;
* F3 = ``analytics-numpy`` (L2-matches C1; no match with C2);
* F2 = ``alu`` (exactly C1's stack -> L3 full match; no match with C2).

Policy 1 (greedy): F3 grabs C1 at L2; F2 must cold-start.
Policy 2 (planned): F3 cold-starts; F2 warm-starts on C1 at L3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import ascii_table
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.workloads.functions import function_by_id

C1_FUNC_ID = 5    # hello-python-debian: the contested container
C2_FUNC_ID = 9    # comm-cpp: the decoy container
F3_FUNC_ID = 6    # analytics-numpy: arrives first, L2 match with C1
F2_FUNC_ID = 10   # alu: arrives second, L3 match with C1


@dataclass(frozen=True)
class Fig2Result:
    """Startup latencies of both policies and the option table."""

    options: Dict[str, Dict[str, float]]  # function -> {start kind -> latency}
    policy1_total_s: float                # greedy (best-effort)
    policy2_total_s: float                # globally planned

    @property
    def greedy_is_suboptimal(self) -> bool:
        return self.policy1_total_s > self.policy2_total_s


def run(cost_model: StartupCostModel | None = None) -> Fig2Result:
    """Run the experiment; returns its result dataclass."""
    model = cost_model or StartupCostModel()
    c1_image = function_by_id(C1_FUNC_ID).image
    c2_image = function_by_id(C2_FUNC_ID).image

    options: Dict[str, Dict[str, float]] = {}
    latencies: Dict[tuple, float] = {}
    for label, func_id in (("F3", F3_FUNC_ID), ("F2", F2_FUNC_ID)):
        spec = function_by_id(func_id)
        row: Dict[str, float] = {}
        for cname, cimage in (("C1", c1_image), ("C2", c2_image)):
            match = match_level(spec.image, cimage)
            if match.is_reusable:
                row[cname] = model.latency_s(
                    spec.image, match, spec.function_init_s
                )
            else:
                row[cname] = float("nan")
            latencies[(label, cname)] = row[cname]
        row["cold"] = model.latency_s(
            spec.image, MatchLevel.NO_MATCH, spec.function_init_s
        )
        latencies[(label, "cold")] = row["cold"]
        options[label] = row

    # Policy 1 (greedy best-effort): F3 takes its best option (C1 at L2);
    # F2's only deep match is gone, so F2 cold-starts.
    policy1 = latencies[("F3", "C1")] + latencies[("F2", "cold")]
    # Policy 2 (global): F3 cold-starts, preserving C1 for F2's full match.
    policy2 = latencies[("F3", "cold")] + latencies[("F2", "C1")]
    return Fig2Result(
        options=options, policy1_total_s=policy1, policy2_total_s=policy2
    )


def report(result: Fig2Result) -> str:
    """Render the result as the paper-style ASCII report."""
    rows: List[List[str]] = []
    for label, row in result.options.items():
        rows.append(
            [
                label,
                *(
                    "no match" if v != v else f"{v:.2f}s"  # NaN check
                    for v in (row["C1"], row["C2"], row["cold"])
                ),
            ]
        )
    table = ascii_table(
        ["function", "warm C1", "warm C2", "cold"],
        rows,
        title="Fig 2: startup options (seconds)",
    )
    lines = [
        table,
        "",
        f"Policy 1 (greedy best-effort) total: {result.policy1_total_s:.2f}s",
        f"Policy 2 (globally planned)   total: {result.policy2_total_s:.2f}s",
        f"greedy suboptimal: {result.greedy_is_suboptimal}",
    ]
    return "\n".join(lines)
