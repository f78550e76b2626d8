"""Algorithm 1: offline training of the MLCR DQN.

Each training iteration replays the workload; every decision stores a
transition ``(s_t, a_t, r_t, s_{t+1})`` in the replay pool and takes
mini-batch gradient steps.  Every episode -- learning, demonstration or
validation -- runs through the one loop :meth:`MLCRTrainer.rollout`, as a
lane of kind ``"dqn"``, ``"greedy"``/``"exact"`` or ``"eval"``.  Three
practical additions over the bare algorithm:

* **Demonstration seeding** -- before DQN episodes, a few episodes are rolled
  out with heuristic policies and stored in the replay buffer: Greedy-Match
  (deepest match) alternating with exact-match-only (LRU-style).  The two
  heuristics dominate in different pool regimes (greedy under Tight, exact
  under Loose), so showing both gives the bootstrapped targets sensible
  value estimates for either mode from step one.  Ablated in the benchmarks.
* **Masked exploration** -- random exploration only samples valid actions,
  exactly the paper's Section IV-C masking argument.
* **Validation checkpoint selection** -- every ``eval_every`` episodes the
  current policy is rolled out greedily (epsilon = 0) on held-out validation
  workloads and the best-performing network snapshot is kept; training
  returns that snapshot.  Standard practice for value-based RL, where the
  latest network is not necessarily the best one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.containers.matching import MatchLevel
from repro.core.config import MLCRConfig
from repro.core.env import SchedulingEnv
from repro.core.state import EncodedState, StateEncoder
from repro.drl.dqn import DQNAgent
from repro.drl.network import AttentionQNetwork, MLPQNetwork, QNetwork
from repro.drl.replay import Transition
from repro.drl.schedules import LinearDecayEpsilon


#: Linear exploration schedule: epsilon decays from ``EPSILON_START`` to
#: ``EPSILON_END`` over ``MLCRConfig.epsilon_decay_steps`` decisions.
EPSILON_START = 0.9
EPSILON_END = 0.02

#: Episode indices at or above this base are validation episodes; workload
#: factories must map them to seeds disjoint from the training seeds.
EVAL_EPISODE_BASE = 100_000


@dataclass
class TrainingHistory:
    """Per-episode training diagnostics."""

    episode_returns: List[float] = field(default_factory=list)
    episode_latencies: List[float] = field(default_factory=list)
    episode_cold_starts: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    eval_latencies: List[float] = field(default_factory=list)
    best_eval_latency: float = float("inf")


def q_network_factory(
    config: MLCRConfig, encoder: StateEncoder
) -> Callable[[], QNetwork]:
    """Zero-argument builder of the Q-network ``config`` describes.

    Every call draws its initial weights from the same ``seed + 2``
    generator, so the online and target networks start equal and a saved
    policy rebuilds the architecture it was trained with.
    """

    def factory() -> QNetwork:
        rng = np.random.default_rng(config.seed + 2)
        if config.use_attention:
            return AttentionQNetwork(
                global_dim=encoder.global_dim,
                slot_dim=encoder.slot_dim,
                n_slots=encoder.n_slots,
                rng=rng,
                model_dim=config.model_dim,
                n_heads=config.n_heads,
                n_blocks=config.n_blocks,
                head_hidden=config.head_hidden,
                dtype=config.np_dtype,
            )
        return MLPQNetwork(
            global_dim=encoder.global_dim,
            slot_dim=encoder.slot_dim,
            n_slots=encoder.n_slots,
            rng=rng,
            hidden=config.model_dim * 2,
            dtype=config.np_dtype,
        )

    return factory


@dataclass
class _Lane:
    """One episode's live state inside a synchronized rollout."""

    env: SchedulingEnv
    kind: str                       # "dqn" | "eval" | "greedy" | "exact"
    encoded: Optional[EncodedState]
    total_reward: float = 0.0
    total_latency: float = 0.0
    cold_starts: int = 0
    next_action: int = -1


class MLCRTrainer:
    """Train a masked DQN scheduler on a workload distribution."""

    def __init__(
        self,
        env: SchedulingEnv,
        config: MLCRConfig,
        encoder: Optional[StateEncoder] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.encoder = encoder or env.encoder
        self.agent = DQNAgent(
            network_factory=q_network_factory(config, self.encoder),
            config=config.dqn,
            rng=np.random.default_rng(config.seed + 1),
        )
        self.history = TrainingHistory()
        self._epsilon = LinearDecayEpsilon(
            start=EPSILON_START,
            end=EPSILON_END,
            decay_steps=config.epsilon_decay_steps,
        )
        self._global_step = 0

    # -- training loop ------------------------------------------------------
    def train(self, verbose: bool = False) -> TrainingHistory:
        """Run demonstration seeding then the DQN episodes of Algorithm 1."""
        if self.config.demo_episodes:
            kinds = [
                "greedy" if demo % 2 == 0 else "exact"
                for demo in range(self.config.demo_episodes)
            ]
            self.rollout(kinds, range(self.config.demo_episodes))
        best_snapshot = None
        for episode in range(self.config.n_episodes):
            [(ret, latency, colds)] = self.rollout(["dqn"], [episode])
            self.history.episode_returns.append(ret)
            self.history.episode_latencies.append(latency)
            self.history.episode_cold_starts.append(colds)
            if verbose:  # pragma: no cover - console output
                print(
                    f"episode {episode:3d}: return={ret:9.2f} "
                    f"latency={latency:9.2f}s cold={colds:4d} "
                    f"eps={self._epsilon.value(self._global_step):.3f}"
                )
            last = episode == self.config.n_episodes - 1
            if self.config.eval_every and (
                last or (episode + 1) % self.config.eval_every == 0
            ):
                eval_latency = self._validate()
                self.history.eval_latencies.append(eval_latency)
                if eval_latency < self.history.best_eval_latency:
                    self.history.best_eval_latency = eval_latency
                    best_snapshot = self.agent.online.state_dict()
        if best_snapshot is not None:
            self.agent.online.load_state_dict(best_snapshot)
            self.agent.sync_target()
        return self.history

    def _validate(self) -> float:
        """Greedy-policy rollouts on held-out validation workloads.

        The validation episodes run as one synchronized batch: each step is
        a single ``(E, state_dim)`` forward instead of ``E`` batch-1
        forwards (see :meth:`rollout`).
        """
        n = max(1, self.config.eval_episodes)
        results = self.rollout(
            ["eval"] * n, [EVAL_EPISODE_BASE + i for i in range(n)]
        )
        return float(np.mean([latency for _, latency, _ in results]))

    # -- rollouts --------------------------------------------------------------
    def rollout(
        self, kinds: Sequence[str], episodes: Sequence[int]
    ) -> List[Tuple[float, float, int]]:
        """Run episodes of the given lane kinds stepped together.

        Each episode gets its own environment/encoder (via
        :meth:`~repro.core.env.SchedulingEnv.spawn`) so arrival tracking
        stays per-episode.  The four lane kinds:

        * ``"dqn"`` -- a learning episode of Algorithm 1: epsilon-greedy
          :meth:`~repro.drl.dqn.DQNAgent.act`, one state at a time so the
          agent's generator is drawn in decision order, and a gradient step
          every ``train_every`` global steps;
        * ``"eval"`` -- greedy; all live eval lanes share one batched
          forward per step (they act before that step's ``"dqn"`` lanes
          train);
        * ``"greedy"`` / ``"exact"`` -- heuristic demonstrations
          (:meth:`_demo_action`).

        Every lane but ``"eval"`` stores one transition per decision and
        advances the global step, in Algorithm 1's order: the transition
        (unless terminal), the gradient step, the step count, then the
        terminal transition.  Returns ``(return, latency, cold_starts)``
        per episode, in input order.
        """
        lanes = []
        for kind, episode in zip(kinds, episodes):
            env = self.env.spawn()
            lanes.append(_Lane(env=env, kind=kind, encoded=env.reset(episode)))
        active = [lane for lane in lanes if lane.encoded is not None]
        for lane in lanes:
            if lane.encoded is None:
                lane.env.finish()
        while active:
            eval_lanes = [lane for lane in active if lane.kind == "eval"]
            if eval_lanes:
                states = np.stack([lane.encoded.state for lane in eval_lanes])
                masks = np.stack(
                    [self._training_mask(lane.encoded) for lane in eval_lanes]
                )
                for lane, action in zip(
                    eval_lanes, self.agent.act_batch(states, masks)
                ):
                    lane.next_action = int(action)
            still_active = []
            for lane in active:
                kind, encoded = lane.kind, lane.encoded
                if kind == "eval":
                    action = lane.next_action
                elif kind == "dqn":
                    action = self.agent.act(
                        encoded.state,
                        self._training_mask(encoded),
                        self._epsilon.value(self._global_step),
                    )
                else:
                    action = self._demo_action(encoded, kind)
                result = lane.env.step(action, encoded)
                lane.total_reward += result.reward
                lane.total_latency += result.startup_latency_s
                lane.cold_starts += int(result.cold_start)
                lane.encoded = result.state
                if kind != "eval":
                    if result.state is not None:
                        self._remember(encoded, action, result.reward,
                                       result.state)
                    if (kind == "dqn"
                            and self._global_step % self.config.train_every == 0):
                        loss = self.agent.train_step()
                        if loss is not None:
                            self.history.losses.append(loss)
                    self._global_step += 1
                    if result.state is None:
                        # The terminal transition enters the buffer after the
                        # episode's last gradient step, never before it.
                        self._remember(encoded, action, result.reward, None)
                if lane.encoded is None:
                    lane.env.finish()
                else:
                    still_active.append(lane)
            active = still_active
        return [
            (lane.total_reward, lane.total_latency, lane.cold_starts)
            for lane in lanes
        ]

    def _remember(
        self,
        encoded: EncodedState,
        action: int,
        reward: float,
        next_encoded: Optional[EncodedState],
    ) -> None:
        """Store one transition; ``next_encoded=None`` marks it terminal."""
        if next_encoded is None:
            next_state = np.zeros_like(encoded.state)
            next_mask = np.zeros(self.agent.action_dim, dtype=bool)
            next_mask[-1] = True
        else:
            next_state = next_encoded.state
            next_mask = self._training_mask(next_encoded)
        self.agent.remember(
            Transition(
                state=encoded.state,
                action=action,
                reward=reward,
                next_state=next_state,
                next_mask=next_mask,
                done=next_encoded is None,
            )
        )

    def _training_mask(self, encoded: EncodedState) -> np.ndarray:
        """Mask used inside TD targets (all-valid when masking is ablated)."""
        if self.config.use_mask:
            return encoded.mask
        return np.ones_like(encoded.mask)

    @staticmethod
    def _demo_action(encoded: EncodedState, kind: str) -> int:
        """Heuristic demonstration actions in slot space.

        ``greedy``: deepest match (slot 0 holds it after ranking);
        ``exact``: only a full (L3) match, otherwise cold start.
        """
        cold = len(encoded.slot_containers)
        if kind == "exact":
            for slot, match in enumerate(encoded.slot_matches):
                if match is MatchLevel.L3 and encoded.mask[slot]:
                    return slot
            return cold
        if encoded.mask[:-1].any():
            return int(np.flatnonzero(encoded.mask[:-1])[0])
        return cold
