"""Tests for the Q-networks and the masked DQN agent."""

import numpy as np
import pytest

from repro.drl.dqn import DQNAgent, DQNConfig, masked_argmax
from repro.drl.network import AttentionQNetwork, MLPQNetwork
from repro.drl.replay import Transition

from test_drl_layers import check_gradients

G, S, N = 5, 4, 3  # global dim, slot dim, slots


def attention_net(rng, **kw):
    return AttentionQNetwork(G, S, N, rng, model_dim=8, n_heads=2,
                             head_hidden=8, **kw)


def mlp_net(rng):
    return MLPQNetwork(G, S, N, rng, hidden=16)


class TestNetworks:
    @pytest.mark.parametrize("factory", [attention_net, mlp_net])
    def test_shapes(self, factory, rng):
        net = factory(rng)
        assert net.state_dim == G + N * S
        assert net.action_dim == N + 1
        q = net.forward(rng.normal(size=(6, net.state_dim)))
        assert q.shape == (6, N + 1)

    @pytest.mark.parametrize("factory", [attention_net, mlp_net])
    def test_gradients(self, factory, rng):
        net = factory(rng)
        check_gradients(net, rng.normal(size=(3, net.state_dim)), rng,
                        atol=1e-6)

    def test_bad_state_shape(self, rng):
        net = attention_net(rng)
        with pytest.raises(ValueError):
            net.forward(rng.normal(size=(3, net.state_dim + 1)))

    def test_split_state(self, rng):
        net = attention_net(rng)
        states = rng.normal(size=(2, net.state_dim))
        g, s = net.split_state(states)
        assert g.shape == (2, G)
        assert s.shape == (2, N, S)
        np.testing.assert_array_equal(states[0, :G], g[0])

    def test_slot_symmetry(self, rng):
        """Identical slot features produce identical slot Q-values."""
        net = attention_net(rng)
        state = np.zeros((1, net.state_dim))
        state[0, :G] = rng.normal(size=G)
        slot_feat = rng.normal(size=S)
        for i in range(N):
            state[0, G + i * S : G + (i + 1) * S] = slot_feat
        q = net.forward(state)[0]
        np.testing.assert_allclose(q[:N], q[0], atol=1e-10)

    def test_backward_before_forward(self, rng):
        with pytest.raises(RuntimeError):
            attention_net(rng).backward(np.zeros((1, N + 1)))


class TestMaskedArgmax:
    def test_respects_mask(self):
        q = np.array([[10.0, 1.0, 5.0]])
        mask = np.array([[False, True, True]])
        assert masked_argmax(q, mask)[0] == 2

    def test_all_invalid_rejected(self):
        with pytest.raises(ValueError):
            masked_argmax(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_argmax(np.zeros((1, 3)), np.zeros((1, 2), dtype=bool))


@pytest.fixture
def agent():
    return DQNAgent(
        network_factory=lambda: mlp_net(np.random.default_rng(1)),
        config=DQNConfig(batch_size=8, buffer_capacity=64,
                         target_sync_every=5),
        rng=np.random.default_rng(2),
    )


def fill_buffer(agent, n=40, rng=None):
    rng = rng or np.random.default_rng(3)
    mask = np.ones(agent.action_dim, dtype=bool)
    for i in range(n):
        s = rng.normal(size=agent.online.state_dim)
        agent.remember(Transition(s, i % agent.action_dim, -1.0,
                                  rng.normal(size=agent.online.state_dim),
                                  mask, False))


class TestDQNAgent:
    def test_act_respects_mask_greedy(self, agent, rng):
        state = rng.normal(size=agent.online.state_dim)
        mask = np.zeros(agent.action_dim, dtype=bool)
        mask[2] = True
        for _ in range(5):
            assert agent.act(state, mask, epsilon=0.0) == 2

    def test_act_respects_mask_random(self, agent, rng):
        state = rng.normal(size=agent.online.state_dim)
        mask = np.array([True, False, True, False])
        actions = {agent.act(state, mask, epsilon=1.0) for _ in range(50)}
        assert actions <= {0, 2}

    def test_act_all_invalid_rejected(self, agent, rng):
        state = rng.normal(size=agent.online.state_dim)
        with pytest.raises(ValueError):
            agent.act(state, np.zeros(agent.action_dim, dtype=bool), 0.0)

    def test_train_before_batch_returns_none(self, agent):
        assert agent.train_step() is None

    def test_train_step_returns_loss(self, agent):
        fill_buffer(agent)
        loss = agent.train_step()
        assert loss is not None and loss >= 0.0

    def test_training_reduces_td_error_on_fixed_problem(self):
        """Q-learning on a trivial 1-state MDP converges to r/(1-gamma)."""
        agent = DQNAgent(
            network_factory=lambda: mlp_net(np.random.default_rng(1)),
            config=DQNConfig(batch_size=16, buffer_capacity=64, gamma=0.5,
                             lr=3e-3, target_sync_every=10),
            rng=np.random.default_rng(2),
        )
        state = np.ones(agent.online.state_dim)
        mask = np.ones(agent.action_dim, dtype=bool)
        for _ in range(32):
            agent.remember(Transition(state, 0, 1.0, state, mask, False))
        for _ in range(400):
            agent.train_step()
        q = agent.q_values(state)[0]
        assert q == pytest.approx(2.0, rel=0.15)  # 1/(1-0.5)

    def test_td_targets_match_textbook_double_dqn_in_float64(self):
        """A float32 agent's TD targets are float64 and equal, bit for bit,
        r + gamma * (1 - done) * Q_target(s', argmax_masked Q_online(s'))
        computed in float64 from the same forward outputs."""
        gamma = 0.95
        agent = DQNAgent(
            network_factory=lambda: attention_net(
                np.random.default_rng(3), dtype=np.float32
            ),
            config=DQNConfig(batch_size=8, buffer_capacity=64, gamma=gamma,
                             target_sync_every=1000),
            rng=np.random.default_rng(4),
        )
        rng = np.random.default_rng(5)
        dim = agent.online.state_dim
        for i in range(64):
            mask = rng.random(agent.action_dim) < 0.5
            mask[-1] = True
            agent.remember(Transition(
                rng.normal(size=dim), int(rng.integers(agent.action_dim)),
                float(rng.normal()), rng.normal(size=dim), mask, i % 4 == 0,
            ))
        # Independent target weights, so online and target choose
        # different next actions and double DQN is observable.
        agent.target.copy_from(
            attention_net(np.random.default_rng(6), dtype=np.float32)
        )
        batch = agent.buffer.sample(32, rng)
        assert batch["dones"].any() and not batch["dones"].all()

        targets = agent._td_targets(batch)
        with agent.online.inference():
            q_online = agent.online.forward(batch["next_states"])
        q_target = agent.target.forward(batch["next_states"])
        assert q_online.dtype == q_target.dtype == np.float32
        best = np.where(batch["next_masks"], q_online, -np.inf).argmax(axis=1)
        by_target = np.where(batch["next_masks"], q_target, -np.inf).argmax(1)
        assert (best != by_target).any()
        bootstrap = q_target[np.arange(len(best)), best].astype(np.float64)
        not_done = 1.0 - batch["dones"].astype(np.float64)
        expected = (batch["rewards"].astype(np.float64)
                    + gamma * not_done * bootstrap)
        assert targets.dtype == np.float64
        assert np.array_equal(targets, expected)

    def test_target_sync_counts(self, agent):
        fill_buffer(agent)
        for _ in range(5):
            agent.train_step()
        # After target_sync_every=5 steps the networks match.
        x = np.random.default_rng(0).normal(size=(2, agent.online.state_dim))
        np.testing.assert_allclose(agent.online.forward(x),
                                   agent.target.forward(x))

    def test_done_transitions_drop_bootstrap(self):
        agent = DQNAgent(
            network_factory=lambda: mlp_net(np.random.default_rng(1)),
            config=DQNConfig(batch_size=8, buffer_capacity=32, gamma=0.9,
                             lr=3e-3, target_sync_every=4),
            rng=np.random.default_rng(2),
        )
        state = np.ones(agent.online.state_dim)
        mask = np.ones(agent.action_dim, dtype=bool)
        for _ in range(16):
            agent.remember(Transition(state, 1, 3.0, state, mask, True))
        for _ in range(300):
            agent.train_step()
        assert agent.q_values(state)[1] == pytest.approx(3.0, rel=0.1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DQNConfig(gamma=1.5)
        with pytest.raises(ValueError):
            DQNConfig(batch_size=64, buffer_capacity=32)
        with pytest.raises(ValueError):
            DQNConfig(target_sync_every=0)
