"""Always-cold scheduler: a sanity-check lower bound on warm reuse."""

from __future__ import annotations

from repro.containers.costmodel import StartupCostModel
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation


class ColdOnlyScheduler(Scheduler):
    """Cold-start every invocation (no reuse at all).

    Not part of the paper's comparison set, but useful as the worst-case
    reference against which warm-start savings are normalized in tests.
    """

    name = "ColdOnly"

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """Always cold."""
        return COLD
