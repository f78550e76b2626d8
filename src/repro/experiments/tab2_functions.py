"""Table II: the FStartBench function inventory.

Prints the 13 functions with their OS / language / runtime stacks plus the
measured quantities our synthetic profiles add (image size, memory footprint,
cold-start latency and the cold-start-to-execution ratio the paper reports as
1.3x--166x on Tencent SCF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import ascii_table
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel
from repro.packages.package import PackageLevel
from repro.workloads.functions import fstartbench_functions


@dataclass(frozen=True)
class Tab2Row:
    func_id: int
    name: str
    os: str
    language: str
    runtime: str
    description: str
    image_size_mb: float
    memory_mb: float
    cold_start_s: float
    cold_to_exec_ratio: float


@dataclass(frozen=True)
class Tab2Result:
    rows: List[Tab2Row]

    @property
    def min_ratio(self) -> float:
        return min(r.cold_to_exec_ratio for r in self.rows)

    @property
    def max_ratio(self) -> float:
        return max(r.cold_to_exec_ratio for r in self.rows)


def _level_names(spec, level: PackageLevel) -> str:
    """Packages at a level, largest first (the primary stack leads)."""
    pkgs = sorted(
        spec.image.level_set(level), key=lambda p: (-p.size_mb, p.name)
    )
    return "+".join(p.name for p in pkgs) if pkgs else "-"


def run(cost_model: StartupCostModel | None = None) -> Tab2Result:
    """Run the experiment; returns its result dataclass."""
    model = cost_model or StartupCostModel()
    rows: List[Tab2Row] = []
    for spec in fstartbench_functions():
        cold = model.latency_s(
            spec.image, MatchLevel.NO_MATCH, spec.function_init_s
        )
        rows.append(
            Tab2Row(
                func_id=spec.func_id,
                name=spec.name,
                os=_level_names(spec, PackageLevel.OS),
                language=_level_names(spec, PackageLevel.LANGUAGE),
                runtime=_level_names(spec, PackageLevel.RUNTIME),
                description=spec.description,
                image_size_mb=spec.image.total_size_mb,
                memory_mb=spec.image.memory_mb,
                cold_start_s=cold,
                cold_to_exec_ratio=cold / spec.exec_time_mean_s,
            )
        )
    return Tab2Result(rows=rows)


def report(result: Tab2Result) -> str:
    """Render the result as the paper-style ASCII report."""
    table_rows = [
        [
            r.func_id,
            r.name,
            next((p.replace("-base", "") for p in r.os.split("+")
                  if p.endswith("-base")), r.os.split("+")[0]),
            r.language.split("+")[0],
            r.runtime,
            f"{r.image_size_mb:.0f}",
            f"{r.memory_mb:.0f}",
            f"{r.cold_start_s:.2f}",
            f"{r.cold_to_exec_ratio:.1f}x",
        ]
        for r in result.rows
    ]
    table = ascii_table(
        ["id", "function", "OS", "language", "runtime", "size MB",
         "mem MB", "cold s", "cold/exec"],
        table_rows,
        title="Table II: FStartBench functions",
    )
    return "\n".join(
        [
            table,
            "",
            f"cold-start / execution ratio range: "
            f"{result.min_ratio:.1f}x - {result.max_ratio:.1f}x "
            "(paper: 1.3x - 166x)",
        ]
    )
