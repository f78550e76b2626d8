"""Q-networks: the Fig. 7 policy network and an MLP ablation.

The paper's policy network concatenates cluster and function states,
normalizes them, lifts them through an embedding layer, applies two
multi-head attention layers, and maps to per-action Q-values through linear
layers, with a mask filtering invalid actions (applied by the agent).

Our state is structured: one *global* segment (function + cluster features)
and ``n_slots`` *container* segments.  :class:`AttentionQNetwork` embeds each
segment as a token, runs the two attention blocks over the ``n_slots + 1``
tokens, and reads one Q-value per container token (action = reuse that
container) plus one from the global token (action = cold start).  Action
``i < n_slots`` reuses slot ``i``; action ``n_slots`` is the cold start --
exactly the paper's action space with ``a_{n+1}`` as the new-container
action.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.drl.attention import AttentionBlock
from repro.drl.layers import LayerNorm, Linear, Module, ReLU, Sequential


class QNetwork(Module, abc.ABC):
    """Interface: maps flat state batches to per-action Q-value batches."""

    state_dim: int
    action_dim: int

    @abc.abstractmethod
    def forward(self, states: np.ndarray) -> np.ndarray:
        """``(batch, state_dim) -> (batch, action_dim)``."""

    @abc.abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop ``(batch, action_dim)`` gradients; returns state grads."""


class AttentionQNetwork(QNetwork):
    """Token-based Fig. 7 network.

    Parameters
    ----------
    global_dim:
        Width of the global (function + cluster) feature segment.
    slot_dim:
        Width of each container-slot feature segment.
    n_slots:
        Number of container slots (= warm-pool action count ``n``).
    model_dim:
        Token embedding width (the paper uses 512; CPU default 64).
    n_heads:
        Attention heads (paper: 2).
    n_blocks:
        Attention layers (paper: 2).
    head_hidden:
        Hidden width of the Q read-out heads.
    dtype:
        Compute/storage precision.  The MLCR pipeline passes float32 (the
        fast path); the default stays float64 for tight gradient checks.
    """

    def __init__(
        self,
        global_dim: int,
        slot_dim: int,
        n_slots: int,
        rng: np.random.Generator,
        model_dim: int = 64,
        n_heads: int = 2,
        n_blocks: int = 2,
        head_hidden: int = 64,
        dtype: np.dtype = np.float64,
    ) -> None:
        if n_slots < 1:
            raise ValueError("need at least one container slot")
        self.global_dim = global_dim
        self.slot_dim = slot_dim
        self.n_slots = n_slots
        self.model_dim = model_dim
        self.dtype = np.dtype(dtype)
        self.state_dim = global_dim + n_slots * slot_dim
        self.action_dim = n_slots + 1

        self.global_embed = Linear(global_dim, model_dim, rng,
                                   name="embed.global", dtype=dtype)
        self.slot_embed = Linear(slot_dim, model_dim, rng, name="embed.slot",
                                 dtype=dtype)
        self.blocks = [
            AttentionBlock(model_dim, n_heads, rng, name=f"block{i}",
                           dtype=dtype)
            for i in range(n_blocks)
        ]
        self.out_norm = LayerNorm(model_dim, name="out.ln", dtype=dtype)
        self.slot_head = Sequential(
            Linear(model_dim, head_hidden, rng, name="head.slot.0",
                   dtype=dtype),
            ReLU(),
            Linear(head_hidden, 1, rng, name="head.slot.1", dtype=dtype),
        )
        self.cold_head = Sequential(
            Linear(model_dim, head_hidden, rng, name="head.cold.0",
                   dtype=dtype),
            ReLU(),
            Linear(head_hidden, 1, rng, name="head.cold.1", dtype=dtype),
        )
        self._batch: Optional[int] = None

    # -- state layout helpers -------------------------------------------------
    def split_state(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split flat states into (global, slots) segments."""
        if states.ndim != 2 or states.shape[1] != self.state_dim:
            raise ValueError(
                f"expected (batch, {self.state_dim}), got {states.shape}"
            )
        if states.dtype != self.dtype:
            states = states.astype(self.dtype)
        global_part = states[:, : self.global_dim]
        slot_part = states[:, self.global_dim :].reshape(
            states.shape[0], self.n_slots, self.slot_dim
        )
        return global_part, slot_part

    # -- forward / backward -----------------------------------------------------
    def forward(self, states: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward() needs."""
        global_part, slot_part = self.split_state(states)
        b = states.shape[0]
        if self.training:
            self._batch = b
        g_tok = self.global_embed.forward(global_part)[:, None, :]
        s_tok = self.slot_embed.forward(slot_part)
        tokens = np.concatenate([g_tok, s_tok], axis=1)  # (B, n+1, D)
        for block in self.blocks:
            tokens = block.forward(tokens)
        tokens = self.out_norm.forward(tokens)
        q_slots = self.slot_head.forward(tokens[:, 1:, :])[..., 0]   # (B, n)
        q_cold = self.cold_head.forward(tokens[:, 0, :])             # (B, 1)
        return np.concatenate([q_slots, q_cold], axis=1)             # (B, n+1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backward pass; consumes the forward cache, accumulates grads."""
        if self._batch is None:
            raise RuntimeError("backward before forward")
        b, self._batch = self._batch, None
        if grad.shape != (b, self.action_dim):
            raise ValueError(f"expected grad shape {(b, self.action_dim)}")
        d_slot_q = grad[:, : self.n_slots, None]     # (B, n, 1)
        d_cold_q = grad[:, self.n_slots :]           # (B, 1)
        d_tokens = np.zeros((b, self.n_slots + 1, self.model_dim),
                            dtype=self.dtype)
        d_tokens[:, 1:, :] = self.slot_head.backward(d_slot_q)
        d_tokens[:, 0, :] = self.cold_head.backward(d_cold_q)
        d_tokens = self.out_norm.backward(d_tokens)
        for block in reversed(self.blocks):
            d_tokens = block.backward(d_tokens)
        d_global = self.global_embed.backward(d_tokens[:, 0, :])
        d_slots = self.slot_embed.backward(d_tokens[:, 1:, :])
        return np.concatenate(
            [d_global, d_slots.reshape(b, self.n_slots * self.slot_dim)], axis=1
        )


class MLPQNetwork(QNetwork):
    """Plain MLP over the flat state (the attention-vs-MLP ablation)."""

    def __init__(
        self,
        global_dim: int,
        slot_dim: int,
        n_slots: int,
        rng: np.random.Generator,
        hidden: int = 128,
        n_hidden_layers: int = 2,
        dtype: np.dtype = np.float64,
    ) -> None:
        if n_hidden_layers < 1:
            raise ValueError("need at least one hidden layer")
        self.global_dim = global_dim
        self.slot_dim = slot_dim
        self.n_slots = n_slots
        self.dtype = np.dtype(dtype)
        self.state_dim = global_dim + n_slots * slot_dim
        self.action_dim = n_slots + 1
        layers = [Linear(self.state_dim, hidden, rng, name="mlp.0",
                         dtype=dtype), ReLU()]
        for i in range(1, n_hidden_layers):
            layers += [Linear(hidden, hidden, rng, name=f"mlp.{i}",
                              dtype=dtype), ReLU()]
        layers.append(Linear(hidden, self.action_dim, rng, name="mlp.out",
                             dtype=dtype))
        self.net = Sequential(*layers)

    def forward(self, states: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward() needs."""
        if states.ndim != 2 or states.shape[1] != self.state_dim:
            raise ValueError(
                f"expected (batch, {self.state_dim}), got {states.shape}"
            )
        if states.dtype != self.dtype:
            states = states.astype(self.dtype)
        return self.net.forward(states)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backward pass; consumes the forward cache, accumulates grads."""
        return self.net.backward(grad)
