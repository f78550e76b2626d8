"""W-style always-adopt scheduler (the Fig. 1 "W" reuse mode).

Adopts any same-OS warm container and pulls only missing packages (delta
costing), always choosing the candidate whose delta cost is lowest.  It is
the level-free counterpart of Greedy-Match: no Table-I pruning, maximal
adoption.  Not part of the paper's comparison set (the paper uses "W" only
in the motivating microbenchmark), provided as an extension baseline.

Note the cluster simulator prices warm reuse by Table-I match level; this
scheduler therefore *selects* by delta cost but still pays level-based cost
in the simulator -- its value is in the Fig. 1 analysis and in stress-testing
the matcher with adversarial adoption behaviour.
"""

from __future__ import annotations

import math

from repro.cluster.pool import _mru_key
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation

_NO_MATCH, _L1 = MatchLevel.NO_MATCH, MatchLevel.L1  # per-arrival aliases


class AlwaysAdoptScheduler(Scheduler):
    """Adopt the same-OS container with the smallest delta startup cost."""

    name = "W-AlwaysAdopt"

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """Cheapest same-OS delta cost, adopted only when it beats the
        cold-start latency.

        Candidates are visited least-recently-used first with a strict
        ``<``, so the first minimizer in LRU order wins.
        """
        spec = invocation.spec
        image = spec.image
        candidates = pool.match_candidates(image, _L1)
        if not candidates:
            return COLD
        if len(candidates) > 1:
            candidates.sort(key=_mru_key)
        finit = spec.function_init_s
        best = None
        best_cost = math.inf
        for c in candidates:
            cost = cost_model.delta_breakdown(image, c.image, finit).total_s
            if cost < best_cost:
                best_cost = cost
                best = c
        cold = cost_model.latency_s(image, _NO_MATCH, finit)
        if best_cost < cold:
            return best, int(match_level(image, best.image)), False, ()
        return COLD
