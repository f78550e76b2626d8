"""Multi-head self-attention with manual backpropagation.

The Fig. 7 policy network uses two multi-head attention layers to let the
Q-function relate the arriving function's features to every warm container's
features (and containers to each other).  Input and output are token tensors
of shape ``(batch, tokens, model_dim)``.

Shapes inside the layer follow the standard decomposition: queries, keys and
values are ``(batch, heads, tokens, head_dim)`` with
``head_dim = model_dim / heads``.

The Q/K/V projections are **fused**: one ``(D, 3D)`` matmul produces all
three, replacing the historical separate ``w_q``/``w_k``/``w_v`` linears.
One big GEMM beats three small ones (better BLAS utilization, one pass over
``x``), and the fused activations reshape into per-head views without
copying.  Policy files store the fused layout only
(:data:`repro.core.persistence.FORMAT_VERSION`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.drl.layers import Linear, Module, Parameter, glorot_init


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class MultiHeadAttention(Module):
    """Self-attention: ``softmax(QK^T / sqrt(d)) V`` with an output projection."""

    def __init__(
        self,
        model_dim: int,
        n_heads: int,
        rng: np.random.Generator,
        name: str = "mha",
        dtype: np.dtype = np.float64,
    ) -> None:
        if model_dim % n_heads != 0:
            raise ValueError(
                f"model_dim {model_dim} not divisible by n_heads {n_heads}"
            )
        self.model_dim = model_dim
        self.n_heads = n_heads
        self.head_dim = model_dim // n_heads
        self.dtype = np.dtype(dtype)
        # Fused Q/K/V projection: three (D, D) Glorot blocks side by side,
        # so the per-projection fan statistics match the unfused layout.
        fused = np.concatenate(
            [glorot_init(rng, model_dim, model_dim) for _ in range(3)], axis=1
        )
        self.w_qkv = Parameter(fused, f"{name}.qkv.weight", dtype=dtype)
        self.b_qkv = Parameter(
            np.zeros(3 * model_dim), f"{name}.qkv.bias", dtype=dtype
        )
        self.w_o = Linear(model_dim, model_dim, rng, name=f"{name}.o",
                          dtype=dtype)
        # Python float so float32 activations are not promoted to float64.
        self._scale = float(1.0 / np.sqrt(self.head_dim))
        self._cache: Optional[Tuple] = None

    # -- reshaping helpers -------------------------------------------------
    def _split(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> (B, H, T, dh) -- a view, no copy."""
        b, t, _ = x.shape
        return x.reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        """(B, H, T, dh) -> (B, T, D) -- one copy (the reshape collapse)."""
        b, h, t, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)

    # -- forward / backward --------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward() needs (training mode only)."""
        if x.ndim != 3 or x.shape[-1] != self.model_dim:
            raise ValueError(
                f"expected (batch, tokens, {self.model_dim}), got {x.shape}"
            )
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        b, t, _ = x.shape
        qkv = x @ self.w_qkv.value + self.b_qkv.value       # (B, T, 3D)
        # (B, T, 3D) -> (3, B, H, T, dh): one transpose view, q/k/v slices.
        qkv = qkv.reshape(b, t, 3, self.n_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.transpose(0, 1, 3, 2)) * self._scale  # (B, H, T, T)
        attn = _softmax(scores, axis=-1)
        context = attn @ v                                    # (B, H, T, dh)
        out = self.w_o.forward(self._merge(context))
        if self.training:
            self._cache = (x, q, k, v, attn)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backward pass; consumes the forward cache, accumulates grads."""
        if self._cache is None:
            raise RuntimeError("backward before forward")
        x, q, k, v, attn = self._cache
        self._cache = None

        d_context = self._split(self.w_o.backward(grad))       # (B, H, T, dh)
        d_attn = d_context @ v.transpose(0, 1, 3, 2)            # (B, H, T, T)
        d_v = attn.transpose(0, 1, 3, 2) @ d_context            # (B, H, T, dh)
        # Softmax backward: rowwise Jacobian-vector product.
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        d_scores *= self._scale
        d_q = d_scores @ k                                       # (B, H, T, dh)
        d_k = d_scores.transpose(0, 1, 3, 2) @ q                 # (B, H, T, dh)

        b, t, _ = x.shape
        # Re-fuse the three gradients into (B, T, 3D) for one weight GEMM.
        d_qkv = np.empty((3, b, self.n_heads, t, self.head_dim),
                         dtype=self.dtype)
        d_qkv[0], d_qkv[1], d_qkv[2] = d_q, d_k, d_v
        d_qkv = d_qkv.transpose(1, 3, 0, 2, 4).reshape(
            b, t, 3 * self.model_dim
        )
        x2 = x.reshape(-1, self.model_dim)
        g2 = d_qkv.reshape(-1, 3 * self.model_dim)
        self.w_qkv.grad += x2.T @ g2
        self.b_qkv.grad += g2.sum(axis=0)
        return d_qkv @ self.w_qkv.value.T


class AttentionBlock(Module):
    """Pre-norm residual attention block: ``x + MHA(LN(x))``.

    Residual connections keep gradients healthy through the two stacked
    attention layers of the policy network.
    """

    def __init__(
        self, model_dim: int, n_heads: int, rng: np.random.Generator,
        name: str = "block", dtype: np.dtype = np.float64,
    ) -> None:
        from repro.drl.layers import LayerNorm  # local to avoid cycle noise

        self.norm = LayerNorm(model_dim, name=f"{name}.ln", dtype=dtype)
        self.attn = MultiHeadAttention(model_dim, n_heads, rng,
                                       name=f"{name}.mha", dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what backward() needs."""
        return x + self.attn.forward(self.norm.forward(x))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backward pass; consumes the forward cache, accumulates grads."""
        return grad + self.norm.backward(self.attn.backward(grad))

