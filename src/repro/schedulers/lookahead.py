"""Clairvoyant bounded-horizon scheduler (ablation upper bound).

Not part of the paper's comparison set.  This scheduler is told the full
workload in advance (:meth:`observe_workload`) and, at each decision, weighs
the immediate saving of grabbing a container against the best saving any of
the next ``horizon`` invocations could extract from the *same* container --
a direct operationalization of the paper's Fig. 2 insight.  It gives a cheap
estimate of how much headroom exists beyond Greedy-Match, which bounds what
the DRL scheduler can hope to learn.

A decision finds its horizon through an ``invocation_id -> position`` index
built once per workload, prices each upcoming arrival once, and scores each
distinct candidate image once: a candidate's score depends only on its
image, so only the first container of an image in scan order can win.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.pool import _mru_key
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation, Workload

# Aliases: an enum member read off its class costs a descriptor call.
_NO_MATCH, _L1 = MatchLevel.NO_MATCH, MatchLevel.L1


class LookaheadScheduler(Scheduler):
    """Greedy matching tempered by clairvoyant opportunity costs."""

    name = "Lookahead"

    def __init__(self, horizon: int = 8) -> None:
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.horizon = horizon
        self._future: List[Invocation] = []
        self._position: Dict[int, int] = {}

    def observe_workload(self, workload: Workload) -> None:
        """Give the scheduler clairvoyant access to the arrival stream."""
        self._future = list(workload.invocations)
        self._position = {}
        for i, inv in enumerate(self._future):
            # A repeated id keeps its first position.
            self._position.setdefault(inv.invocation_id, i)

    def reset(self) -> None:
        """Clear per-run state."""
        self._future = []
        self._position = {}

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
            for c in pool.match_candidates(image, _L1)
        ]
        scored.sort(key=lambda cm: (cm[1], _mru_key(cm[0])), reverse=True)
        return scored

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """The reusable container with the best positive net saving --
        its startup saving minus the worst saving a near-future arrival
        forfeits -- else cold.

        An upcoming arrival that lands while the container is busy
        (startup plus execution) forfeits its whole as-is saving; a later
        one forfeits only how much more that is than its saving from the
        container repacked to this image.  Each upcoming arrival's cold
        latency and repacked saving are priced once per decision.  Scans
        :meth:`candidates` in order, scoring only the first container of
        each distinct image; a later candidate wins only with a strictly
        better score.
        """
        spec = invocation.spec
        image = spec.image
        finit = spec.function_init_s
        latency_s = cost_model.latency_s
        cold_latency = latency_s(image, _NO_MATCH, finit)
        window = []
        for inv in self._upcoming(invocation):
            up, up_init = inv.spec.image, inv.spec.function_init_s
            up_cold = latency_s(up, _NO_MATCH, up_init)
            repack = match_level(up, image)
            repacked = (
                0.0 if repack is _NO_MATCH
                else up_cold - latency_s(up, repack, up_init)
            )
            window.append((up, up_init, inv.arrival_time, up_cold, repacked))
        best = COLD
        best_score = 0.0  # score of cold start: zero net saving
        seen_images = set()
        for container, level in self.candidates(pool, image):
            held = container.image
            if held.fingerprints in seen_images:
                continue
            seen_images.add(held.fingerprints)
            my_latency = latency_s(image, level, finit)
            busy_until = (
                invocation.arrival_time + my_latency
                + invocation.execution_time_s
            )
            worst = 0.0
            for up, up_init, arrival, up_cold, repacked in window:
                match = match_level(up, held)
                if match is _NO_MATCH:
                    continue
                as_is = up_cold - latency_s(up, match, up_init)
                if as_is <= 0:
                    continue
                if arrival < busy_until:
                    loss = as_is
                else:
                    loss = max(0.0, as_is - repacked)
                worst = max(worst, loss)
            score = (cold_latency - my_latency) - worst
            if score > best_score:
                best_score = score
                best = (container, int(level), False, ())
        return best

    def _upcoming(self, current: Invocation) -> List[Invocation]:
        """The next ``horizon`` invocations after ``current``; none for an
        id that was never observed."""
        idx = self._position.get(current.invocation_id)
        if idx is None:
            return []
        return self._future[idx + 1 : idx + 1 + self.horizon]
