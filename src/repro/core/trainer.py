"""Algorithm 1: offline training of the MLCR DQN.

Each training iteration replays the workload; every decision stores a
transition ``(s_t, a_t, r_t, s_{t+1})`` in the replay pool and takes
mini-batch gradient steps.  Two practical additions over the bare algorithm:

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

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.containers.matching import MatchLevel
from repro.core.config import MLCRConfig
from repro.core.env import SchedulingEnv
from repro.core.state import EncodedState, StateEncoder
from repro.drl.dqn import DQNAgent
from repro.drl.network import (
    AttentionQNetwork,
    DuelingAttentionQNetwork,
    MLPQNetwork,
    QNetwork,
)
from repro.drl.replay import Transition
from repro.drl.schedules import LinearDecayEpsilon



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

    @property
    def best_latency(self) -> float:
        return min(self.episode_latencies) if self.episode_latencies else float("nan")


@dataclass
class _Lane:
    """One episode's live state inside a synchronized batched rollout."""

    env: SchedulingEnv
    kind: str                       # "eval" | "greedy" | "exact"
    encoded: Optional[EncodedState]
    total_reward: float = 0.0
    total_latency: float = 0.0
    cold_starts: int = 0
    next_action: int = -1
    # n-step accumulator: [state, action, [r_t, r_t+1, ...]] per entry.
    window: Deque[list] = field(default_factory=deque)


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
        self.rng = np.random.default_rng(config.seed)
        self.agent = DQNAgent(
            network_factory=self._network_factory(),
            config=config.dqn,
            rng=np.random.default_rng(config.seed + 1),
        )
        if config.use_prioritized_replay:
            from repro.drl.prioritized import PrioritizedReplayBuffer

            self.agent.buffer = PrioritizedReplayBuffer(
                config.dqn.buffer_capacity,
                self.agent.online.state_dim,
                self.agent.online.action_dim,
                dtype=config.np_dtype,
            )
        self.history = TrainingHistory()
        self._epsilon = LinearDecayEpsilon(
            start=config.epsilon_start,
            end=config.epsilon_end,
            decay_steps=config.epsilon_decay_steps,
        )
        self._global_step = 0

    # -- network construction ---------------------------------------------------
    def _network_factory(self) -> Callable[[], QNetwork]:
        cfg = self.config
        enc = self.encoder
        seed = cfg.seed + 2

        def factory() -> QNetwork:
            rng = np.random.default_rng(seed)
            if cfg.use_attention:
                cls = (
                    DuelingAttentionQNetwork
                    if cfg.use_dueling
                    else AttentionQNetwork
                )
                return cls(
                    global_dim=enc.global_dim,
                    slot_dim=enc.slot_dim,
                    n_slots=enc.n_slots,
                    rng=rng,
                    model_dim=cfg.model_dim,
                    n_heads=cfg.n_heads,
                    n_blocks=cfg.n_blocks,
                    head_hidden=cfg.head_hidden,
                    dtype=cfg.np_dtype,
                )
            return MLPQNetwork(
                global_dim=enc.global_dim,
                slot_dim=enc.slot_dim,
                n_slots=enc.n_slots,
                rng=rng,
                hidden=cfg.model_dim * 2,
                dtype=cfg.np_dtype,
            )

        return factory

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
            ret, latency, colds = self._run_episode(
                policy="dqn", learn=True, episode=episode
            )
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
        forwards (see :meth:`_run_episodes_batched`).
        """
        n = max(1, self.config.eval_episodes)
        results = self.rollout(
            ["eval"] * n, [EVAL_EPISODE_BASE + i for i in range(n)]
        )
        return float(np.mean([latency for _, latency, _ in results]))

    # -- batched rollouts ---------------------------------------------------
    def rollout(
        self, kinds: Sequence[str], episodes: Sequence[int]
    ) -> List[Tuple[float, float, int]]:
        """Run no-learning episodes (``"eval"``/``"greedy"``/``"exact"``).

        Dispatches on ``config.batched_rollouts``: the step-synchronous batched
        path (default) or one sequential :meth:`_run_episode` per entry.
        Both return ``(return, latency, cold_starts)`` per episode in
        input order and are outcome-identical -- the differential oracle
        harness holds them to that.
        """
        kinds = list(kinds)
        episodes = list(episodes)
        if self.config.batched_rollouts:
            return self._run_episodes_batched(kinds, episodes)
        return [
            self._run_episode(policy=kind, learn=False, episode=episode)
            for kind, episode in zip(kinds, episodes)
        ]

    def _run_episodes_batched(
        self, kinds: Sequence[str], episodes: Sequence[int]
    ) -> List[Tuple[float, float, int]]:
        """Run several no-learning episodes stepped together.

        Each episode gets its own environment/encoder (via
        :meth:`~repro.core.env.SchedulingEnv.spawn`) so arrival tracking
        stays per-episode.  All ``"eval"`` lanes that are still alive share
        one batched greedy forward per step; demonstration lanes
        (``"greedy"`` / ``"exact"``) act heuristically and store their
        transitions exactly as the sequential path does.  Returns
        ``(return, latency, cold_starts)`` per episode, in input order.
        """
        gamma = self.config.dqn.gamma
        n_step = self.config.n_step
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
                is_eval = lane.kind == "eval"
                action = (
                    lane.next_action if is_eval
                    else self._demo_action(lane.encoded, lane.kind)
                )
                result = lane.env.step(action, lane.encoded)
                lane.total_reward += result.reward
                lane.total_latency += result.startup_latency_s
                lane.cold_starts += int(result.cold_start)
                if not is_eval:
                    for entry in lane.window:
                        entry[2].append(result.reward)
                    lane.window.append([lane.encoded, action, [result.reward]])
                    if (
                        result.state is not None
                        and len(lane.window[0][2]) >= n_step
                    ):
                        self._emit(lane.window.popleft(), result.state, gamma,
                                   done=False)
                    self._global_step += 1
                lane.encoded = result.state
                if lane.encoded is None:
                    if not is_eval:
                        for entry in lane.window:
                            self._emit(entry, None, gamma, done=True)
                    lane.env.finish()
                else:
                    still_active.append(lane)
            active = still_active
        return [
            (lane.total_reward, lane.total_latency, lane.cold_starts)
            for lane in lanes
        ]

    # -- episode rollout -------------------------------------------------------
    def _run_episode(self, policy: str, learn: bool, episode: int):
        encoded = self.env.reset(episode)
        is_eval = policy == "eval"
        demo_kind = policy if policy in ("greedy", "exact") else None
        total_reward = 0.0
        total_latency = 0.0
        cold_starts = 0
        gamma = self.config.dqn.gamma
        n_step = self.config.n_step
        # n-step accumulator: [state, action, [r_t, r_t+1, ...]].  A deque:
        # the ready transition pops from the left in O(1) instead of the
        # O(n) list ``pop(0)``.
        window: Deque[list] = deque()

        while encoded is not None:
            action = self._choose_action(encoded, demo_kind, is_eval)
            result = self.env.step(action, encoded)
            total_reward += result.reward
            total_latency += result.startup_latency_s
            cold_starts += int(result.cold_start)

            if is_eval:
                encoded = result.state
                continue
            for entry in window:
                entry[2].append(result.reward)
            window.append([encoded, action, [result.reward]])
            if result.state is not None and len(window[0][2]) >= n_step:
                self._emit(window.popleft(), result.state, gamma, done=False)

            if learn and self._global_step % self.config.train_every == 0:
                loss = self.agent.train_step()
                if loss is not None:
                    self.history.losses.append(loss)
            self._global_step += 1
            encoded = result.state

        if not is_eval:
            # Episode over: flush the window with terminal transitions.
            for entry in window:
                self._emit(entry, None, gamma, done=True)
        self.env.finish()
        return total_reward, total_latency, cold_starts

    def _emit(
        self,
        entry: list,
        next_encoded: Optional[EncodedState],
        gamma: float,
        done: bool,
    ) -> None:
        """Store one (possibly n-step) transition in the replay buffer."""
        state, action, rewards = entry
        returns = sum(r * gamma**i for i, r in enumerate(rewards))
        if done or next_encoded is None:
            next_state = np.zeros_like(state.state)
            next_mask = np.zeros(self.agent.action_dim, dtype=bool)
            next_mask[-1] = True
            done = True
        else:
            next_state = next_encoded.state
            next_mask = self._training_mask(next_encoded)
        self.agent.remember(
            Transition(
                state=state.state,
                action=action,
                reward=returns,
                next_state=next_state,
                next_mask=next_mask,
                done=done,
                n_steps=len(rewards),
            )
        )

    def _training_mask(self, encoded: EncodedState) -> np.ndarray:
        """Mask used inside TD targets (all-valid when masking is ablated)."""
        if self.config.use_mask:
            return encoded.mask
        return np.ones_like(encoded.mask)

    def _choose_action(
        self, encoded: EncodedState, demo_kind: Optional[str],
        is_eval: bool = False,
    ) -> int:
        if demo_kind is not None:
            return self._demo_action(encoded, demo_kind)
        epsilon = 0.0 if is_eval else self._epsilon.value(self._global_step)
        return self.agent.act(
            encoded.state, self._training_mask(encoded), epsilon
        )

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
