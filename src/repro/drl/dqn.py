"""Masked double DQN agent.

Implements Algorithm 1 plus the paper's two optimizations (Section IV-C):

* the attention-based policy network (supplied by the caller), and
* the *action mask*: invalid actions (busy / absent / no-match containers)
  are excluded both when acting and inside the bootstrapped target's ``max``.

Double DQN (action selected by the online network, evaluated by the target
network) and Huber loss are standard stabilizers for small-budget training.
TD targets are one-step: ``r + gamma * (1 - done) * Q_target(s', a*)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.drl.losses import huber_loss
from repro.drl.network import QNetwork
from repro.drl.optim import Adam
from repro.drl.replay import ReplayBuffer, Transition

NEG_INF = -1e18

#: Huber loss threshold between the quadratic and linear regimes.
HUBER_DELTA = 1.0
#: Global gradient-norm bound applied before every optimizer step.
GRAD_CLIP = 10.0


def masked_argmax(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise argmax of ``q`` restricted to ``mask`` (boolean, same shape)."""
    if q.shape != mask.shape:
        raise ValueError("q and mask shapes differ")
    if not mask.any(axis=-1).all():
        raise ValueError("every row needs at least one valid action")
    return np.where(mask, q, NEG_INF).argmax(axis=-1)


@dataclass(frozen=True)
class DQNConfig:
    """Hyperparameters of the DQN agent."""

    gamma: float = 0.95
    lr: float = 1e-3
    batch_size: int = 32
    buffer_capacity: int = 20_000
    target_sync_every: int = 200

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("buffer must hold at least one batch")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")


class DQNAgent:
    """Masked DQN over a caller-supplied Q-network architecture.

    Parameters
    ----------
    network_factory:
        Zero-argument callable building a fresh Q-network; called twice
        (online + target) so the two networks share architecture but not
        parameters.
    config:
        Hyperparameters.
    rng:
        Random generator driving exploration and replay sampling.
    """

    def __init__(
        self,
        network_factory: Callable[[], QNetwork],
        config: DQNConfig,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.rng = rng
        self.online = network_factory()
        self.target = network_factory()
        self.target.copy_from(self.online)
        # The target network only ever runs forward passes for TD targets:
        # keep it permanently in inference mode (no activation caching).
        self.target.train(False)
        self.buffer = ReplayBuffer(
            config.buffer_capacity,
            self.online.state_dim,
            self.online.action_dim,
            dtype=getattr(self.online, "dtype", np.float64),
        )
        self.optimizer = Adam(self.online.parameters(), lr=config.lr)
        self.train_steps = 0
        self.act_steps = 0

    # -- acting ------------------------------------------------------------
    @property
    def action_dim(self) -> int:
        return self.online.action_dim

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Online-network Q-values for a single state (no caching)."""
        with self.online.inference():
            return self.online.forward(state[None, :])[0]

    def act(self, state: np.ndarray, mask: np.ndarray, epsilon: float) -> int:
        """Epsilon-greedy masked action selection."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.action_dim,):
            raise ValueError(f"mask must have shape ({self.action_dim},)")
        if not mask.any():
            raise ValueError("at least one action must be valid")
        self.act_steps += 1
        if self.rng.random() < epsilon:
            valid = np.flatnonzero(mask)
            return int(self.rng.choice(valid))
        q = self.q_values(state)
        return int(masked_argmax(q[None, :], mask[None, :])[0])

    def act_batch(self, states: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Greedy masked actions for a batch of independent states.

        One ``(E, state_dim)`` inference-mode forward replaces ``E``
        batch-1 forwards -- the fast path for synchronized greedy
        validation rollouts.  Returns an ``(E,)`` array of action indices.
        """
        states = np.asarray(states)
        masks = np.asarray(masks, dtype=bool)
        if states.ndim != 2 or masks.shape != (len(states), self.action_dim):
            raise ValueError(
                f"expected states (E, {self.online.state_dim}) and masks "
                f"(E, {self.action_dim}), got {states.shape} / {masks.shape}"
            )
        if not masks.any(axis=-1).all():
            raise ValueError("every row needs at least one valid action")
        self.act_steps += len(states)
        with self.online.inference():
            q = self.online.forward(states)
        return masked_argmax(q, masks)

    # -- learning -----------------------------------------------------------
    def remember(self, transition: Transition) -> None:
        """Store a transition in the replay buffer."""
        self.buffer.add(transition)

    def can_train(self) -> bool:
        """Whether the buffer holds at least one batch."""
        return len(self.buffer) >= self.config.batch_size

    def train_step(self) -> Optional[float]:
        """One gradient step on a replay batch; returns the loss or None."""
        if not self.can_train():
            return None
        cfg = self.config
        batch = self.buffer.sample(cfg.batch_size, self.rng)
        targets = self._td_targets(batch)

        q_all = self.online.forward(batch["states"])          # (B, A)
        rows = np.arange(cfg.batch_size)
        q_taken = q_all[rows, batch["actions"]]
        loss, d_q_taken = huber_loss(q_taken, targets, HUBER_DELTA)

        grad = np.zeros_like(q_all)
        grad[rows, batch["actions"]] = d_q_taken
        self.online.zero_grad()
        self.online.backward(grad)
        self.optimizer.clip_grad_norm(GRAD_CLIP)
        self.optimizer.step()

        self.train_steps += 1
        if self.train_steps % cfg.target_sync_every == 0:
            self.sync_target()
        return loss

    def _td_targets(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """One-step targets with masked double-DQN maximization."""
        next_q_target = self.target.forward(batch["next_states"])
        # Action selection only -- no backward pass follows, so the online
        # forward runs in inference mode (no caching).
        with self.online.inference():
            next_q_online = self.online.forward(batch["next_states"])
        best = masked_argmax(next_q_online, batch["next_masks"])
        bootstrap = next_q_target[np.arange(len(best)), best]
        # A float64 scalar, not a Python float: it keeps float32 agents'
        # targets in float64.
        discount = np.float64(self.config.gamma)
        return batch["rewards"] + discount * np.where(
            batch["dones"], 0.0, bootstrap
        )

    def sync_target(self) -> None:
        """Hard-copy online parameters into the target network."""
        self.target.copy_from(self.online)
