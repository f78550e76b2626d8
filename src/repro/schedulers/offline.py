"""Scheduler serving an offline-fitted tabular Q-policy.

:class:`OfflineQScheduler` looks up the arriving function's Q-row in an
:class:`~repro.drl.offline.OfflineQPolicy` (fitted by
:func:`~repro.drl.offline.fit_from_traces` from golden-trace /
serve-recording JSONL), masks out actions with no idle candidate at that
match level, and picks the arg-max action with the first-maximum
tie-break of :func:`~repro.drl.dqn.masked_argmax`.  For
functions the data never covered -- or before any policy is attached --
it falls back to the greedy deepest-match rule, so the registry's no-arg
construction is always valid.

When built without an explicit policy, :meth:`observe_workload`
bootstraps one from the workload itself (:func:`bootstrap_policy`): a
greedy reference rollout on an unbounded pool is recorded in memory and
fitted, so experiment-grid cells genuinely train from traces
(deterministically -- same workload, same rollout, same policy) without
any filesystem coupling.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel
from repro.drl.offline import OfflineQPolicy
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.workload import Invocation, Workload

#: Table-I levels by action index (action 0 is the cold start).
_LEVELS = tuple(MatchLevel)

_MISSING = object()


def bootstrap_policy(workload: Workload) -> OfflineQPolicy:
    """The policy a greedy reference rollout of ``workload`` fits to.

    Runs the greedy baseline over ``workload`` on an unbounded pool and
    fits its decision lines (:func:`~repro.drl.offline.fit_from_traces`).
    Deterministic: the same workload always yields the same policy.
    """
    # Deferred imports: schedulers must stay importable without dragging
    # the full cluster stack in at package-import time.
    from repro.cluster.simulator import ClusterSimulator, SimulationConfig
    from repro.drl.offline import fit_from_traces, trace_lines_from_result
    from repro.schedulers.greedy import GreedyMatchScheduler

    reference = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=float("inf")),
        reference.make_eviction_policy(),
    )
    result = sim.run(workload, reference)
    return fit_from_traces([trace_lines_from_result(result)])


class OfflineQScheduler(Scheduler):
    """Serve decisions from a trace-fitted tabular Q-function.

    Parameters
    ----------
    policy:
        A fitted :class:`~repro.drl.offline.OfflineQPolicy`.  ``None``
        (the registry default) starts untrained: decisions fall back to
        greedy deepest-match until :meth:`observe_workload` bootstraps a
        policy from a reference rollout.
    """

    name = "Offline-Q"

    def __init__(self, policy: Optional[OfflineQPolicy] = None) -> None:
        self.policy = policy
        # An explicitly-supplied policy is pinned: observe_workload will
        # not overwrite it (serving a trained checkpoint must not retrain).
        self._policy_pinned = policy is not None

    @property
    def policy(self) -> Optional[OfflineQPolicy]:
        """The served Q-policy (None: greedy fallback)."""
        return self._policy

    @policy.setter
    def policy(self, policy: Optional[OfflineQPolicy]) -> None:
        self._policy = policy
        # Per-function Q-rows, NaN cells resolved to None; None for a
        # function the policy never saw.
        self._rows: Dict[str, Optional[tuple]] = {}

    def reset(self) -> None:
        """Drop any bootstrapped policy (pinned checkpoints survive)."""
        if not self._policy_pinned:
            self.policy = None

    def observe_workload(self, workload: Workload) -> None:
        """Bootstrap a policy from a greedy reference rollout (offline).

        No-op when a policy was supplied at construction.
        """
        if self._policy_pinned:
            return
        self.policy = bootstrap_policy(workload)

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """Masked arg-max over the function's Q-row; greedy fallback.

        Actions are cold start and L1/L2/L3 reuse; a reuse action is
        available when an idle container matches at exactly that level,
        and a NaN Q-value masks its action.  The first maximum wins (the
        :func:`~repro.drl.dqn.masked_argmax` tie-break), and the MRU
        container at the chosen level serves it.  Untrained, unseen or
        fully-masked functions fall back to greedy deepest-match.
        """
        spec = invocation.spec
        image = spec.image
        if self._policy is not None:
            row = self._rows.get(spec.name, _MISSING)
            if row is _MISSING:
                qvals = self._policy.action_values(spec.name)
                row = self._rows[spec.name] = (
                    None if qvals is None else tuple(
                        None if math.isnan(v) else float(v) for v in qvals
                    )
                )
            if row is not None:
                counts = pool.match_depth_counts(image)
                best_a = -1
                best_v = -math.inf
                for a in range(4):
                    v = row[a]
                    if v is None or (a and not counts[a]):
                        continue
                    if v > best_v:
                        best_v = v
                        best_a = a
                if best_a == 0:
                    return COLD
                if best_a > 0:
                    container = pool.best_at_level(image, _LEVELS[best_a])
                    if container is not None:
                        return container, best_a, False, ()
        container, level = pool.best_match(image)
        if container is None:
            return COLD
        return container, int(level), False, ()
