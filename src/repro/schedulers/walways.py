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
from typing import Dict, Tuple

from repro.cluster.pool import _mru_key
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation


class AlwaysAdoptScheduler(Scheduler):
    """Adopt the same-OS container with the smallest delta startup cost."""

    name = "W-AlwaysAdopt"

    def __init__(self) -> None:
        # Per cost model: (delta costs keyed on (function fingerprints,
        # function_init_s, container fingerprints), cold latencies keyed
        # on (function fingerprints, function_init_s)).  Sound because
        # both costs depend only on the images' package sets, which
        # interned fingerprints determine exactly.
        self._memos: Dict[StartupCostModel, Tuple[dict, dict]] = {}

    def reset(self) -> None:
        """Drop the cost memos."""
        self._memos.clear()

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
        candidates = pool.match_candidates(image, MatchLevel.L1)
        if not candidates:
            return COLD
        if len(candidates) > 1:
            candidates.sort(key=_mru_key)
        memos = self._memos.get(cost_model)
        if memos is None:
            memos = self._memos[cost_model] = ({}, {})
        deltas, colds = memos
        fps = image.fingerprints
        finit = spec.function_init_s
        best = None
        best_cost = math.inf
        for c in candidates:
            key = (fps, finit, c.image.fingerprints)
            cost = deltas.get(key)
            if cost is None:
                cost = deltas[key] = cost_model.delta_breakdown(
                    image, c.image, finit
                ).total_s
            if cost < best_cost:
                best_cost = cost
                best = c
        cold = colds.get((fps, finit))
        if cold is None:
            cold = colds[fps, finit] = cost_model.latency_s(
                image, MatchLevel.NO_MATCH, finit
            )
        if best_cost < cold:
            return best, int(match_level(image, best.image)), False, ()
        return COLD
