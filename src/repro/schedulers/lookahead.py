"""Clairvoyant bounded-horizon scheduler (ablation upper bound).

Not part of the paper's comparison set.  This scheduler is told the full
workload in advance (:meth:`observe_workload`) and, at each decision, weighs
the immediate saving of grabbing a container against the best saving any of
the next ``horizon`` invocations could extract from the *same* container --
a direct operationalization of the paper's Fig. 2 insight.  It gives a cheap
estimate of how much headroom exists beyond Greedy-Match, which bounds what
the DRL scheduler can hope to learn.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.pool import _mru_key
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation, Workload


class LookaheadScheduler(Scheduler):
    """Greedy matching tempered by clairvoyant opportunity costs."""

    name = "Lookahead"

    def __init__(self, horizon: int = 8) -> None:
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.horizon = horizon
        self._future: List[Invocation] = []

    def observe_workload(self, workload: Workload) -> None:
        """Give the scheduler clairvoyant access to the arrival stream."""
        self._future = list(workload.invocations)

    def reset(self) -> None:
        """Clear per-run state."""
        self._future = []

    # -- decision logic -------------------------------------------------------
    @staticmethod
    def candidates(
        pool, image: FunctionImage
    ) -> List[Tuple[Container, MatchLevel]]:
        """Reusable idle containers for ``image`` with their match levels,
        in scan order: deepest level first, then most recently used
        (greatest ``(last_used_at, container_id)``)."""
        scored = [
            (c, match_level(image, c.image))
            for c in pool.match_candidates(image, MatchLevel.L1)
        ]
        scored.sort(key=lambda cm: (cm[1], _mru_key(cm[0])), reverse=True)
        return scored

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """The reusable container with the best positive net saving --
        its startup saving minus the worst saving a near-future arrival
        forfeits -- else cold.

        Scans :meth:`candidates` in order; a later candidate wins only
        with a strictly better score.
        """
        spec = invocation.spec
        image = spec.image
        finit = spec.function_init_s
        upcoming = self._upcoming(invocation)
        cold_latency = cost_model.latency_s(image, MatchLevel.NO_MATCH, finit)
        best = COLD
        best_score = 0.0  # score of cold start: zero net saving
        for container, level in self.candidates(pool, image):
            my_latency = cost_model.latency_s(image, level, finit)
            my_saving = cold_latency - my_latency
            # Taking the container keeps it busy through startup + execution;
            # future invocations arriving within that window lose it
            # entirely, later ones only lose the repack delta.
            busy_until = (
                invocation.arrival_time + my_latency
                + invocation.execution_time_s
            )
            loss = self._opportunity_loss(
                container, upcoming, image, cost_model, busy_until
            )
            score = my_saving - loss
            if score > best_score:
                best_score = score
                best = (container, int(level), False, ())
        return best

    def _upcoming(self, current: Invocation) -> List[Invocation]:
        """The next ``horizon`` invocations after ``current``."""
        idx = None
        for i, inv in enumerate(self._future):
            if inv.invocation_id == current.invocation_id:
                idx = i
                break
        if idx is None:
            return []
        return self._future[idx + 1 : idx + 1 + self.horizon]

    def _opportunity_loss(
        self,
        container: Container,
        upcoming: List[Invocation],
        my_image: FunctionImage,
        cost_model: StartupCostModel,
        busy_until: float,
    ) -> float:
        """Worst saving a near-future invocation forfeits if we take it now.

        An invocation arriving while the container is busy loses the entire
        as-is saving; one arriving after it is free again loses only the
        difference between reusing the original stack and reusing the
        repacked (``my_image``) stack.
        """
        worst = 0.0
        for inv in upcoming:
            as_is = self._saving(inv, container.image, cost_model)
            if as_is <= 0:
                continue
            if inv.arrival_time < busy_until:
                loss = as_is
            else:
                loss = max(
                    0.0, as_is - self._saving(inv, my_image, cost_model)
                )
            worst = max(worst, loss)
        return worst

    @staticmethod
    def _saving(
        inv: Invocation,
        container_image: FunctionImage,
        cost_model: StartupCostModel,
    ) -> float:
        """Startup saving ``inv`` would get from a container of that image."""
        match = match_level(inv.spec.image, container_image)
        if not match.is_reusable:
            return 0.0
        cold = cost_model.latency_s(
            inv.spec.image, MatchLevel.NO_MATCH, inv.spec.function_init_s
        )
        warm = cost_model.latency_s(
            inv.spec.image, match, inv.spec.function_init_s
        )
        return cold - warm
