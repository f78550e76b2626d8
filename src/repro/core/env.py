"""Gym-style environment over the cluster simulator.

One environment step = one scheduling decision (the paper's MDP): the state
is the encoded decision point, the action picks a container slot or cold
start, and the reward is the negative startup latency of the resulting start
(``r_t = -lt``, Section IV-B).  Episode = one full workload.

Optionally the reward is augmented with **potential-based shaping**
(Ng, Harada & Russell, 1999): the potential of a pool state is the
demand-weighted warm value of its idle containers,

    phi(s) = sum_c demand(stack_c) * (cold(stack_c) - warm(stack_c)),

and the shaped reward is ``r + gamma * phi(s') - phi(s)``.  Repacking a
container whose stack is hot in the arrival stream *lowers* the potential,
so the long-horizon externality of greedy reuse (the paper's Fig. 2) shows
up immediately in the reward while the optimal policy of the underlying MDP
is provably unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cluster.eviction import LRUEviction
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.containers.matching import MatchLevel
from repro.core.state import EncodedState, StateEncoder
from repro.workloads.workload import Workload

#: Reward = ``-startup_latency_s * REWARD_SCALE``.
REWARD_SCALE = 0.1


@dataclass(frozen=True)
class StepResult:
    """Outcome of one environment step.

    ``queue_delay_s`` is the portion of ``startup_latency_s`` spent
    waiting for a worker concurrency slot (0 unless the simulator
    enforces a ``worker_concurrency`` limit).
    """

    state: Optional[EncodedState]   # next decision point (None when done)
    reward: float
    done: bool
    startup_latency_s: float
    cold_start: bool
    queue_delay_s: float = 0.0


class SchedulingEnv:
    """Drives the simulator one scheduling decision at a time.

    Parameters
    ----------
    workload_factory:
        Called with the episode index; returns the workload to replay.
        Passing different seeds per episode trains across a workload
        *distribution* instead of memorizing one trace.
    sim_config:
        Cluster configuration (pool capacity, cost model).
    encoder:
        State encoder (shared with the eventual :class:`MLCRScheduler` so
        training and serving observe identical features).

    Every episode evicts with LRU, as in the paper.
    """

    def __init__(
        self,
        workload_factory: Callable[[int], Workload],
        sim_config: SimulationConfig,
        encoder: StateEncoder,
        shaping_coef: float = 0.0,
        gamma: float = 0.99,
    ) -> None:
        self.workload_factory = workload_factory
        self.sim_config = sim_config
        self.encoder = encoder
        self.shaping_coef = shaping_coef
        self.gamma = gamma
        self._sim: Optional[ClusterSimulator] = None
        self._episode = -1
        self._phi = 0.0

    def spawn(self) -> "SchedulingEnv":
        """A fresh environment over the same configuration.

        The spawn gets its **own encoder clone** (arrival tracking and
        demand features are per-episode state), so several spawns can run
        episodes stepped together -- the batched validation/demonstration
        rollouts of :class:`~repro.core.trainer.MLCRTrainer` -- without
        cross-contaminating each other's features.
        """
        return SchedulingEnv(
            workload_factory=self.workload_factory,
            sim_config=self.sim_config,
            encoder=self.encoder.clone(),
            shaping_coef=self.shaping_coef,
            gamma=self.gamma,
        )

    # -- episode control -----------------------------------------------------
    def reset(self, episode: Optional[int] = None) -> Optional[EncodedState]:
        """Start a new episode; returns the first decision point.

        Returns ``None`` for an empty workload.
        """
        self._episode = self._episode + 1 if episode is None else episode
        workload = self.workload_factory(self._episode)
        self._sim = ClusterSimulator(self.sim_config, LRUEviction())
        self._sim.load(workload)
        self.encoder.reset()
        ctx = self._sim.next_decision_point()
        if ctx is None:
            return None
        encoded = self.encoder.encode(
            ctx.pool, ctx.invocation, ctx.cost_model
        )
        self._phi = self._potential()
        return encoded

    def step(self, action: int, encoded: EncodedState) -> StepResult:
        """Apply ``action`` (interpreted against ``encoded``'s slot map)."""
        if self._sim is None:
            raise RuntimeError("call reset() before step()")
        decision = encoded.decision_for(action)
        record = self._sim.apply_decision(decision)
        reward = -record.startup_latency_s * REWARD_SCALE
        ctx = self._sim.next_decision_point()
        if ctx is None:
            if self.shaping_coef:
                reward += 0.0 - self._phi  # phi(terminal) = 0
            return StepResult(
                state=None,
                reward=reward,
                done=True,
                startup_latency_s=record.startup_latency_s,
                cold_start=record.cold_start,
                queue_delay_s=record.queue_delay_s,
            )
        next_state = self.encoder.encode(
            ctx.pool, ctx.invocation, ctx.cost_model
        )
        if self.shaping_coef:
            phi_next = self._potential()
            reward += self.gamma * phi_next - self._phi
            self._phi = phi_next
        return StepResult(
            state=next_state,
            reward=reward,
            done=False,
            startup_latency_s=record.startup_latency_s,
            cold_start=record.cold_start,
            queue_delay_s=record.queue_delay_s,
        )

    # -- potential-based shaping -------------------------------------------
    def _stack_saving(self, image) -> float:
        """Cold-minus-warm latency of a container's stack."""
        model = self.sim_config.cost_model
        return model.latency_s(image, MatchLevel.NO_MATCH, 0.0) - (
            model.latency_s(image, MatchLevel.L3, 0.0)
        )

    def _potential(self) -> float:
        """Demand-weighted warm value of the current idle pool."""
        if not self.shaping_coef or self._sim is None:
            return 0.0
        phi = 0.0
        for container in self._sim.pool.containers():
            demand = self.encoder._demand_of(container.image.packages)
            phi += demand * self._stack_saving(container.image)
        return phi * REWARD_SCALE * self.shaping_coef

    def finish(self, scheduler_name: str = "MLCR-train") -> SimulationResult:
        """Drain the simulator after the final decision of an episode."""
        if self._sim is None:
            raise RuntimeError("no active episode")
        result = self._sim.finish(scheduler_name)
        self._sim = None
        return result
