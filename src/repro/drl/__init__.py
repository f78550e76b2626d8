"""From-scratch deep reinforcement learning substrate (numpy only).

The paper trains its scheduler with PyTorch on a V100; this reproduction has
no GPU frameworks available, so the full stack is implemented here on numpy
with manual backpropagation:

* :mod:`repro.drl.layers` -- Parameter/Module framework, Linear, ReLU,
  LayerNorm, Sequential;
* :mod:`repro.drl.attention` -- multi-head self-attention (Fig. 7's trunk);
* :mod:`repro.drl.losses` -- the Huber loss with its analytic gradient;
* :mod:`repro.drl.optim` -- Adam;
* :mod:`repro.drl.replay` -- experience replay buffer (Algorithm 1's ``E``);
* :mod:`repro.drl.schedules` -- the epsilon-greedy exploration schedule;
* :mod:`repro.drl.network` -- the Fig. 7 policy network (token embedding,
  two attention blocks, per-action linear heads) and an MLP ablation;
* :mod:`repro.drl.dqn` -- the double DQN agent with action masking.

Every layer's backward pass is verified against numerical differentiation in
the test suite.
"""

from repro.drl.layers import (
    LayerNorm,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.drl.attention import MultiHeadAttention
from repro.drl.losses import huber_loss
from repro.drl.optim import Adam
from repro.drl.replay import ReplayBuffer, Transition
from repro.drl.schedules import LinearDecayEpsilon
from repro.drl.network import (
    AttentionQNetwork,
    MLPQNetwork,
    QNetwork,
)
from repro.drl.dqn import DQNAgent, DQNConfig

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "LayerNorm",
    "Sequential",
    "MultiHeadAttention",
    "huber_loss",
    "Adam",
    "ReplayBuffer",
    "Transition",
    "LinearDecayEpsilon",
    "QNetwork",
    "AttentionQNetwork",
    "MLPQNetwork",
    "DQNAgent",
    "DQNConfig",
]
