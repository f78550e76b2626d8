"""MLCR configuration.

One dataclass gathering every knob of the DRL scheduler: state-encoding
sizes, policy-network architecture (Fig. 7), DQN hyperparameters and the
training loop's budget.  The defaults are CPU-sized; ``paper_scale()``
returns the configuration with the paper's published dimensions (512-wide
embedding, 2 heads, 2 attention layers).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.drl.dqn import DQNConfig


@dataclass(frozen=True)
class MLCRConfig:
    """All hyperparameters of the MLCR scheduler.

    Parameters
    ----------
    n_slots:
        Maximum number of warm containers visible to the policy (the
        paper's ``n``; the action space is ``n + 1``).
    model_dim, n_heads, n_blocks, head_hidden:
        Policy-network architecture (Fig. 7).
    use_attention:
        ``False`` switches to the MLP ablation network.
    use_mask:
        ``False`` disables the action mask (ablation); invalid actions are
        then interpreted as cold starts, as the paper specifies.
    dqn:
        Agent hyperparameters (gamma, lr, replay, target sync...).
    n_episodes:
        Training episodes (each episode replays one workload).
    epsilon_decay_steps:
        Decisions over which exploration decays linearly from
        :data:`~repro.core.trainer.EPSILON_START` to ``EPSILON_END``.
    train_every:
        Gradient steps are taken every ``train_every`` decisions.
    demo_episodes:
        Episodes of heuristic demonstrations (Greedy-Match alternating with
        exact-match-only) used to seed the replay buffer before DQN
        training (0 disables seeding).
    eval_every:
        Run greedy (epsilon=0) validation episodes every ``eval_every``
        training episodes and snapshot the best network (0 disables
        checkpoint selection).
    eval_episodes:
        Validation episodes per evaluation point.
    shaping_coef:
        Strength of potential-based reward shaping (0 disables).  The
        potential is the demand-weighted warm value of the idle pool; see
        :mod:`repro.core.env`.
    dtype:
        Compute/storage precision of the Q-networks, optimizer state and
        replay buffer: ``"float32"`` (default -- the fast path; the
        networks are small enough that float32 loses no training quality)
        or ``"float64"`` (full precision, the historical behaviour).
    seed:
        Master seed for network init, exploration and replay sampling.
    """

    n_slots: int = 16
    model_dim: int = 64
    n_heads: int = 2
    n_blocks: int = 2
    head_hidden: int = 64
    use_attention: bool = True
    use_mask: bool = True
    dqn: DQNConfig = field(default_factory=DQNConfig)
    n_episodes: int = 30
    epsilon_decay_steps: int = 6000
    train_every: int = 2
    demo_episodes: int = 3
    eval_every: int = 4
    eval_episodes: int = 2
    shaping_coef: float = 1.0
    dtype: str = "float32"
    seed: int = 0

    @property
    def np_dtype(self) -> np.dtype:
        """The configured precision as a numpy dtype."""
        return np.dtype(self.dtype)

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        if self.train_every < 1:
            raise ValueError("train_every must be >= 1")
        if self.demo_episodes < 0:
            raise ValueError("demo_episodes must be >= 0")
        if self.eval_every < 0 or self.eval_episodes < 0:
            raise ValueError("eval_every and eval_episodes must be >= 0")
        if self.shaping_coef < 0:
            raise ValueError("shaping_coef must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")

    @staticmethod
    def paper_scale() -> "MLCRConfig":
        """The published network dimensions (Section IV-B, Fig. 7)."""
        return MLCRConfig(model_dim=512, n_heads=2, n_blocks=2, head_hidden=512)

    def fast(self) -> "MLCRConfig":
        """A reduced-budget variant for benchmarks and smoke tests."""
        return replace(
            self,
            n_episodes=max(4, self.n_episodes // 6),
            demo_episodes=min(2, self.demo_episodes),
            epsilon_decay_steps=max(500, self.epsilon_decay_steps // 6),
        )
