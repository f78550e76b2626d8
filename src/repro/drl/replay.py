"""Experience replay buffer (Algorithm 1's experience pool ``E``).

A fixed-capacity ring buffer over preallocated numpy arrays.  Transitions
store the *next state's action mask* alongside the next state so the DQN
target can respect masking (max over valid actions only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) tuple with the next state's action mask."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    next_mask: np.ndarray
    done: bool


class ReplayBuffer:
    """Uniform-sampling ring buffer of transitions.

    ``dtype`` sets the storage precision of states and rewards; matching it
    to the Q-network's compute dtype (float32 on the fast path) halves the
    buffer's memory footprint and avoids a cast on every sampled batch.
    """

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        action_dim: int,
        dtype: np.dtype = np.float64,
    ) -> None:
        if capacity < 1 or state_dim < 1 or action_dim < 1:
            raise ValueError("capacity, state_dim and action_dim must be >= 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.dtype = np.dtype(dtype)
        self._states = np.zeros((capacity, state_dim), dtype=self.dtype)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=self.dtype)
        self._next_states = np.zeros((capacity, state_dim), dtype=self.dtype)
        self._next_masks = np.zeros((capacity, action_dim), dtype=bool)
        self._dones = np.zeros(capacity, dtype=bool)
        self._size = 0
        self._head = 0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: Transition) -> None:
        """Append a transition, overwriting the oldest when full."""
        state = np.asarray(transition.state, dtype=self.dtype)
        next_state = np.asarray(transition.next_state, dtype=self.dtype)
        next_mask = np.asarray(transition.next_mask, dtype=bool)
        if state.shape != (self.state_dim,) or next_state.shape != (self.state_dim,):
            raise ValueError("state dimensionality mismatch")
        if next_mask.shape != (self.action_dim,):
            raise ValueError("mask dimensionality mismatch")
        if not 0 <= transition.action < self.action_dim:
            raise ValueError(f"action {transition.action} out of range")
        i = self._head
        self._states[i] = state
        self._actions[i] = transition.action
        self._rewards[i] = transition.reward
        self._next_states[i] = next_state
        self._next_masks[i] = next_mask
        self._dones[i] = transition.done
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        """Sample ``batch_size`` transitions uniformly with replacement."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return {
            "states": self._states[idx],
            "actions": self._actions[idx],
            "rewards": self._rewards[idx],
            "next_states": self._next_states[idx],
            "next_masks": self._next_masks[idx],
            "dones": self._dones[idx],
        }
