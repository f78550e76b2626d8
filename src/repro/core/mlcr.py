"""MLCR: the DRL-based multi-level container scheduler.

:class:`MLCRScheduler` wraps a trained DQN agent behind the standard
:class:`~repro.schedulers.base.Scheduler` interface so it can be compared
head-to-head with the baselines in the same simulator.  At serving time the
policy is deterministic (epsilon = 0) and masked, and each decision is a
single forward pass -- the "3-4 ms inference" path of Section VI-D.

:func:`train_mlcr_scheduler` is the one-call entry point used by the
experiments: build encoder + environment, run Algorithm 1, return the
scheduler.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.pool import PoolSet
from repro.cluster.simulator import SimulationConfig
from repro.containers.costmodel import StartupCostModel
from repro.core.config import MLCRConfig
from repro.core.env import SchedulingEnv
from repro.core.state import StateEncoder
from repro.core.trainer import MLCRTrainer, TrainingHistory
from repro.drl.dqn import DQNAgent
from repro.packages.catalog import PackageCatalog
from repro.schedulers.base import PoolDecision, Scheduler
from repro.workloads.workload import Invocation, Workload


class MLCRScheduler(Scheduler):
    """Serve scheduling decisions from a trained masked DQN."""

    name = "MLCR"

    def __init__(self, agent: DQNAgent, encoder: StateEncoder,
                 use_mask: bool = True) -> None:
        self.agent = agent
        self.encoder = encoder
        self.use_mask = use_mask
        self.decisions_made = 0
        # Distilled fast path (attach_surrogate); counters feed telemetry.
        self.surrogate = None
        self.surrogate_audit_every = 0
        self.surrogate_fallbacks = 0
        self.surrogate_audits = 0
        self.surrogate_disagreements = 0

    def attach_surrogate(self, surrogate, audit_every: int = 64) -> None:
        """Serve decisions from a distilled surrogate instead of the network.

        ``surrogate`` is a :class:`~repro.drl.distill.TreeSurrogate` (or
        anything with its ``act(state, mask)`` contract).  Decisions whose
        prediction the live action mask forbids fall back to the full
        network (counted in ``surrogate_fallbacks``).  Every
        ``audit_every``-th surrogate decision is additionally checked
        against the network's greedy action; mismatches increment
        ``surrogate_disagreements`` (the drift signal telemetry surfaces)
        while the surrogate's choice still stands, keeping the audit
        observational.  ``audit_every=0`` disables auditing;
        ``audit_every=1`` audits every decision.
        """
        if audit_every < 0:
            raise ValueError("audit_every must be >= 0")
        self.surrogate = surrogate
        self.surrogate_audit_every = audit_every

    def detach_surrogate(self) -> None:
        """Return to full-network decisions."""
        self.surrogate = None

    def reset(self) -> None:
        """Clear per-run state (the attached surrogate survives)."""
        self.encoder.reset()
        self.decisions_made = 0
        self.surrogate_fallbacks = 0
        self.surrogate_audits = 0
        self.surrogate_disagreements = 0

    def act_surrogate(self, state: np.ndarray, mask: np.ndarray) -> int:
        """Surrogate action with mask-invalid fallback and periodic audit."""
        action = self.surrogate.act(state, mask)
        if action is None:
            self.surrogate_fallbacks += 1
            return self.agent.act(state, mask, epsilon=0.0)
        every = self.surrogate_audit_every
        if every and self.decisions_made % every == 0:
            self.surrogate_audits += 1
            if action != self.agent.act(state, mask, epsilon=0.0):
                self.surrogate_disagreements += 1
        return action

    def decide(
        self,
        pool: PoolSet,
        invocation: Invocation,
        cost_model: StartupCostModel,
    ) -> PoolDecision:
        """Encode the decision point, act greedily, return the pick."""
        encoded = self.encoder.encode(pool, invocation, cost_model)
        mask = encoded.mask if self.use_mask else np.ones_like(encoded.mask)
        if self.surrogate is not None:
            action = self.act_surrogate(encoded.state, mask)
        else:
            action = self.agent.act(encoded.state, mask, epsilon=0.0)
        self.decisions_made += 1
        return encoded.decision_for(action)


def train_mlcr_scheduler(
    workload_factory: Callable[[int], Workload],
    sim_config: SimulationConfig,
    config: MLCRConfig | None = None,
    catalog: Optional[PackageCatalog] = None,
    verbose: bool = False,
) -> tuple[MLCRScheduler, TrainingHistory]:
    """Train MLCR on a workload distribution and return the scheduler.

    Parameters
    ----------
    workload_factory:
        Maps an episode index to a workload (e.g. different seeds of the
        same FStartBench workload family -- the paper's offline training
        data).
    sim_config:
        The cluster the policy will be deployed on (pool capacity matters:
        train on the capacity you evaluate with).
    config:
        MLCR hyperparameters; defaults to :class:`MLCRConfig`.
    """
    cfg = config or MLCRConfig()
    encoder = StateEncoder(n_slots=cfg.n_slots, catalog=catalog)
    env = SchedulingEnv(
        workload_factory=workload_factory,
        sim_config=sim_config,
        encoder=encoder,
        shaping_coef=cfg.shaping_coef,
        gamma=cfg.dqn.gamma,
    )
    trainer = MLCRTrainer(env, cfg, encoder)
    history = trainer.train(verbose=verbose)
    scheduler = MLCRScheduler(trainer.agent, encoder, use_mask=cfg.use_mask)
    return scheduler, history
