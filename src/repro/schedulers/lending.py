"""Pagurus-style inter-function container lending (arXiv:2108.11240).

Reactive half: the deepest-match rule inherited from
:class:`~repro.schedulers.greedy.GreedyMatchScheduler`, so budget 0 is
byte-identical to it (the ``lend_budget_zero_vs_greedy`` differential
oracle pins this).

Proactive half: when an arrival misses an exact match, an idle "helper"
container that has sat unused past ``help_threshold_s`` is re-specialized
toward the arriving function's package set via a
:class:`~repro.schedulers.base.LendRequest` -- the lifecycle repacks it in
place through the fingerprint-prefix match machinery (sharing every
Table-I-compatible layer), so the function's next arrival finds an exact
match.  ``lend_budget`` bounds the total lends per run; budget 0 disables
lending entirely.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.pool import _mru_key
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import LendRequest, PoolDecision
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.workload import Invocation


class PagurusLendingScheduler(GreedyMatchScheduler):
    """Greedy multi-level reuse plus idle-container lending.

    Parameters
    ----------
    lend_budget:
        Maximum lends issued per run (``reset()`` restores the budget).
        0 turns the policy into the plain greedy baseline.
    help_threshold_s:
        An idle container only becomes a lending donor once it has been
        idle at least this long (Pagurus' "unlikely to be needed soon"
        heuristic).  The default is short because the FStartBench
        workloads are arrival-dense: a few idle seconds already signal a
        container its own function is unlikely to reclaim immediately.
    """

    name = "Pagurus-Lend"

    def __init__(
        self, lend_budget: int = 64, help_threshold_s: float = 2.0
    ) -> None:
        if lend_budget < 0:
            raise ValueError("lend_budget must be >= 0")
        if help_threshold_s < 0:
            raise ValueError("help_threshold_s must be >= 0")
        self.lend_budget = lend_budget
        self.help_threshold_s = help_threshold_s
        self._lends_used = 0

    def reset(self) -> None:
        """Restore the full lending budget for a fresh run."""
        self._lends_used = 0

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """Greedy deepest-match reuse, plus a lend toward this function
        when the hit was inexact and a donor is available."""
        decision = super().decide_pool(pool, invocation, cost_model)
        container, match, preserve, _ = decision
        if self._lends_used >= self.lend_budget or match == MatchLevel.L3:
            # Exact hit: nothing to improve for this function right now.
            return decision
        spec = invocation.spec
        donor = self._pick_donor(
            pool, spec.image, invocation.arrival_time, container
        )
        if donor is None:
            return decision
        self._lends_used += 1
        return container, match, preserve, (
            LendRequest(
                container_id=donor.container_id,
                image=spec.image,
                function_name=spec.name,
            ),
        )

    def _pick_donor(
        self,
        pool,
        image: FunctionImage,
        now: float,
        claimed: Optional[Container],
    ) -> Optional[Container]:
        """Deepest-matching idle helper past the threshold, longest-idle
        tie-break; excludes the ``claimed`` container.

        Scans least recently used (smallest ``(last_used_at,
        container_id)``) first; a later candidate wins only with a
        strictly deeper level.
        """
        best: Optional[Container] = None
        best_level = MatchLevel.NO_MATCH
        candidates = pool.match_candidates(image, MatchLevel.L1)
        candidates.sort(key=_mru_key)
        for candidate in candidates:
            if candidate is claimed:
                continue
            if candidate.idle_duration(now) < self.help_threshold_s:
                continue
            level = match_level(image, candidate.image)
            if level > best_level:
                best, best_level = candidate, level
        return best
