"""Online fine-tuning of a trained MLCR policy (paper Section VI-C/D).

The paper: "In addition to offline training, the DRL model also supports
online fine-tuning to adjust model parameters accordingly... This adaptation
process is typically lightweight."

:class:`OnlineFineTuner` wraps a trained :class:`MLCRScheduler` as a
*scheduler that keeps learning*: every decision it serves is also recorded
as a transition, and a small number of gradient steps run after each
decision.  Exploration stays at a low constant epsilon so production traffic
is barely perturbed.  Used to adapt a policy trained on one workload family
to a drifted one without retraining from scratch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mlcr import MLCRScheduler
from repro.core.state import EncodedState
from repro.drl.replay import Transition
from repro.schedulers.base import Decision, Scheduler, SchedulingContext


class OnlineFineTuner(Scheduler):
    """Serve decisions from a trained policy while fine-tuning it in place.

    Parameters
    ----------
    scheduler:
        The trained MLCR scheduler to adapt (modified in place: both serve
        and learn share its agent).
    epsilon:
        Small residual exploration during serving.
    updates_per_decision:
        Gradient steps taken after each scheduling decision.
    reward_scale:
        Must match the scale used in offline training.
    """

    name = "MLCR-online"

    def __init__(
        self,
        scheduler: MLCRScheduler,
        epsilon: float = 0.05,
        updates_per_decision: int = 1,
        reward_scale: float = 0.1,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if updates_per_decision < 0:
            raise ValueError("updates_per_decision must be >= 0")
        self.scheduler = scheduler
        self.epsilon = epsilon
        self.updates_per_decision = updates_per_decision
        self.reward_scale = reward_scale
        self.decisions = 0
        self.updates = 0
        self._pending: Optional[tuple] = None  # (EncodedState, action)

    def reset(self) -> None:
        """Clear per-run state."""
        self.scheduler.reset()
        self._pending = None

    # -- scheduling + learning --------------------------------------------------
    def decide(self, ctx: SchedulingContext) -> Decision:
        """Choose a warm container (or cold start) for ``ctx.invocation``."""
        agent = self.scheduler.agent
        encoded = self.scheduler.encoder.encode(ctx)
        mask = (
            encoded.mask
            if self.scheduler.use_mask
            else np.ones_like(encoded.mask)
        )
        action = agent.act(encoded.state, mask, epsilon=self.epsilon)
        decision = encoded.decision_for(action)

        # Close the previous transition now that we see the next state.  The
        # reward is the (scaled, negated) startup latency the previous
        # decision produced, estimated from the decision's match level.
        if self._pending is not None:
            prev_encoded, prev_action, prev_reward = self._pending
            agent.remember(
                Transition(
                    state=prev_encoded.state,
                    action=prev_action,
                    reward=prev_reward,
                    next_state=encoded.state,
                    next_mask=mask,
                    done=False,
                )
            )
            for _ in range(self.updates_per_decision):
                if agent.train_step() is not None:
                    self.updates += 1

        reward = -self._decision_latency(ctx, encoded, action) * (
            self.reward_scale
        )
        self._pending = (encoded, action, reward)
        self.decisions += 1
        return decision

    @staticmethod
    def _decision_latency(
        ctx: SchedulingContext, encoded: EncodedState, action: int
    ) -> float:
        """Startup latency the chosen action will incur (cost-model exact)."""
        decision = encoded.decision_for(action)
        if decision.is_cold:
            return ctx.estimated_latency(None)
        for container in ctx.idle_containers:
            if container.container_id == decision.container_id:
                return ctx.estimated_latency(container)
        return ctx.estimated_latency(None)  # pragma: no cover - defensive
