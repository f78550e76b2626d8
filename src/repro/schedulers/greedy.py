"""Greedy-Match: multi-level matching with a best-effort greedy pick.

The paper's strongest non-DRL comparison: like MLCR it may reuse containers
across different functions at any Table-I level, but it always grabs the
deepest-matching container available *right now* -- which can strand future
invocations (the Fig. 2 pathology MLCR's DRL scheduler learns to avoid).
Eviction is LRU, as in MLCR.
"""

from __future__ import annotations

from repro.containers.costmodel import StartupCostModel
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation


class GreedyMatchScheduler(Scheduler):
    """Pick the deepest-matching idle container; cold-start otherwise."""

    name = "Greedy-Match"

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """Deepest match at any level (MRU tie-break), else cold."""
        container, level = pool.best_match(invocation.spec.image)
        if container is None:
            return COLD
        return container, int(level), False, ()
