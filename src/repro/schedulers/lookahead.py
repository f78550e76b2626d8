"""Clairvoyant bounded-horizon scheduler (ablation upper bound).

Not part of the paper's comparison set.  This scheduler is told the full
workload in advance (:meth:`observe_workload`) and, at each decision, weighs
the immediate saving of grabbing a container against the best saving any of
the next ``horizon`` invocations could extract from the *same* container --
a direct operationalization of the paper's Fig. 2 insight.  It gives a cheap
estimate of how much headroom exists beyond Greedy-Match, which bounds what
the DRL scheduler can hope to learn.

A decision finds its horizon through an ``invocation_id -> position`` index
built once per workload and scores each distinct candidate image once: a
candidate's score depends only on its image, so only the first container of
an image in scan order can win.  Savings are priced once per run, not once
per decision: the saving an upcoming function gets from a container holding
image X is a pure function of the two images, the function's init time and
the cost model, so the scheduler memoizes it in rows keyed by X's
fingerprints, each indexed by a small integer that :meth:`observe_workload`
gives every distinct ``(image, function_init_s)`` among the arrivals.  The
memo is per instance and per run: ``reset``, ``observe_workload`` and a
decision priced by a different cost model start it afresh, and it is not
pickled (fingerprints are process-local).
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Tuple

from repro.cluster.pool import _mru_key
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation, Workload

# Aliases: an enum member read off its class costs a descriptor call.
_NO_MATCH, _L1 = MatchLevel.NO_MATCH, MatchLevel.L1
# ``_mru_key`` and a scan entry's level, read without a Python call.
_recency = attrgetter("last_used_at", "container_id")
_level = itemgetter(0)


class LookaheadScheduler(Scheduler):
    """Greedy matching tempered by clairvoyant opportunity costs."""

    name = "Lookahead"

    def __init__(self, horizon: int = 8) -> None:
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.horizon = horizon
        self.reset()

    def observe_workload(self, workload: Workload) -> None:
        """Give the scheduler clairvoyant access to the arrival stream."""
        self.reset()
        self._future = list(workload.invocations)
        keys: Dict[tuple, int] = {}
        for i, inv in enumerate(self._future):
            # A repeated id keeps its first position.
            self._position.setdefault(inv.invocation_id, i)
            spec = inv.spec
            image, init = spec.image, spec.function_init_s
            key = keys.setdefault((image.fingerprints, init), len(keys))
            self._arrivals.append((key, image, init, inv.arrival_time))
        self._n_keys = len(keys)

    def reset(self) -> None:
        """Clear per-run state."""
        self._future: List[Invocation] = []
        self._position: Dict[int, int] = {}
        # Per position of ``_future``: (saving key, image, init, arrival),
        # the key numbering the distinct (image, init) pairs 0.._n_keys-1.
        self._arrivals: List[Tuple[int, FunctionImage, float, float]] = []
        self._n_keys = 0
        # Held-image fingerprints -> savings indexed by key (None until
        # priced), and the cost model that priced them.
        self._savings: Dict[tuple, List[Optional[float]]] = {}
        self._priced_by = None

    def __getstate__(self) -> dict:
        """Pickle without the savings memo (fingerprint keys are
        process-local)."""
        state = self.__dict__.copy()
        state["_savings"], state["_priced_by"] = {}, None
        return state

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

    def decide(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """The reusable container with the best positive net saving --
        its startup saving minus the worst saving a near-future arrival
        forfeits -- else cold.

        An upcoming arrival that lands while the container is busy
        (startup plus execution) forfeits its whole as-is saving; a later
        one forfeits only how much more that is than its saving from the
        container repacked to this image.  Both savings come from the
        per-run memo, so each (upcoming function, held image) pair is
        priced once per run, not once per decision.  Scores the first
        container of each distinct image in :meth:`candidates` order --
        the image's most recently used one; images deepest level first,
        then by that container's recency -- and a later image wins only
        with a strictly better score.
        """
        spec = invocation.spec
        image = spec.image
        containers = pool.match_candidates(image, _L1)
        if not containers:
            return COLD
        containers.sort(key=_recency, reverse=True)
        firsts = {}
        for container in containers:
            firsts.setdefault(container.image.fingerprints, container)
        scan = [(match_level(image, c.image), fingerprints, c)
                for fingerprints, c in firsts.items()]
        # Stable: each level keeps the recency order.
        scan.sort(key=_level, reverse=True)
        if cost_model is not self._priced_by:
            self._savings = {}
            self._priced_by = cost_model
        savings = self._savings
        latency_s = cost_model.latency_s
        finit = spec.function_init_s
        idx = self._position.get(invocation.invocation_id)
        window = []
        if idx is not None:
            mine = savings.get(image.fingerprints)
            if mine is None:
                mine = savings[image.fingerprints] = [None] * self._n_keys
            for key, up, up_init, arrival in (
                self._arrivals[idx + 1 : idx + 1 + self.horizon]
            ):
                repacked = mine[key]
                if repacked is None:
                    repacked = mine[key] = _saving(
                        up, up_init, image, latency_s)
                window.append((key, up, up_init, arrival, repacked))
        cold_latency = latency_s(image, _NO_MATCH, finit)
        best = COLD
        best_score = 0.0  # score of cold start: zero net saving
        for level, fingerprints, container in scan:
            held = container.image
            row = savings.get(fingerprints)
            if row is None:
                row = savings[fingerprints] = [None] * self._n_keys
            my_latency = latency_s(image, level, finit)
            busy_until = (
                invocation.arrival_time + my_latency
                + invocation.execution_time_s
            )
            worst = 0.0  # so a negative loss counts as 0.0
            for key, up, up_init, arrival, repacked in window:
                as_is = row[key]
                if as_is is None:
                    as_is = row[key] = _saving(up, up_init, held, latency_s)
                if as_is <= 0:
                    continue
                loss = as_is if arrival < busy_until else as_is - repacked
                if loss > worst:
                    worst = loss
            score = (cold_latency - my_latency) - worst
            if score > best_score:
                best_score = score
                best = (container, False, ())
        return best

    def _upcoming(self, current: Invocation) -> List[Invocation]:
        """The next ``horizon`` invocations after ``current``; none for an
        id that was never observed."""
        idx = self._position.get(current.invocation_id)
        if idx is None:
            return []
        return self._future[idx + 1 : idx + 1 + self.horizon]


def _saving(
    up: FunctionImage, up_init: float, held: FunctionImage, latency_s
) -> float:
    """The startup saving of a function with image ``up`` and init time
    ``up_init`` from a container holding ``held``: its cold latency minus
    its latency at their match level, or 0.0 when nothing matches."""
    match = match_level(up, held)
    if match is _NO_MATCH:
        return 0.0
    return latency_s(up, _NO_MATCH, up_init) - latency_s(up, match, up_init)
