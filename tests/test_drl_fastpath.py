"""Fast-path parity tests: dtype, fused QKV, inference mode, batched rollouts.

The DRL engine's performance work (float32 compute, fused QKV attention,
cache-free inference mode, batched greedy rollouts, parameter-list
memoization) must not change *what* is computed, only how fast.  Every test
here pins an equivalence between the fast path and the reference path.
"""

import numpy as np
import pytest

from repro.cluster.simulator import SimulationConfig
from repro.core.config import MLCRConfig
from repro.core.mlcr import train_mlcr_scheduler
from repro.core.persistence import load_scheduler, save_scheduler
from repro.core.trainer import EVAL_EPISODE_BASE, MLCRTrainer
from repro.drl.attention import MultiHeadAttention, _softmax
from repro.drl.dqn import DQNAgent, DQNConfig, masked_argmax
from repro.drl.layers import Linear, glorot_init
from repro.drl.network import AttentionQNetwork
from repro.drl.replay import ReplayBuffer

from test_core_env_trainer import tiny_config, tiny_workload


def small_net(dtype=np.float64, seed=7):
    return AttentionQNetwork(
        global_dim=6, slot_dim=5, n_slots=3,
        rng=np.random.default_rng(seed),
        model_dim=8, n_heads=2, n_blocks=2, head_hidden=8, dtype=dtype,
    )


def random_states(net, batch=16, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, net.state_dim))


def make_env():
    from repro.core.env import SchedulingEnv
    from repro.core.state import StateEncoder

    return SchedulingEnv(
        workload_factory=lambda ep: tiny_workload(seed=ep % 3),
        sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
        encoder=StateEncoder(n_slots=4),
    )


class TestDtypeParity:
    def test_float32_network_stores_and_returns_float32(self):
        net = small_net(dtype=np.float32)
        assert all(p.value.dtype == np.float32 for p in net.parameters())
        q = net.forward(random_states(net))
        assert q.dtype == np.float32

    def test_q_values_close_and_greedy_actions_identical(self):
        """Same seed, both precisions: Q agree to tolerance, argmax exactly."""
        net64 = small_net(dtype=np.float64)
        net32 = small_net(dtype=np.float32)
        states = random_states(net64, batch=32)
        q64 = net64.forward(states)
        q32 = net32.forward(states)
        assert np.allclose(q32, q64, rtol=1e-3, atol=1e-4)
        mask = np.ones((32, net64.action_dim), dtype=bool)
        assert np.array_equal(
            masked_argmax(q64, mask), masked_argmax(q32.astype(np.float64), mask)
        )

    def test_float32_inputs_not_promoted(self):
        net = small_net(dtype=np.float32)
        states = random_states(net).astype(np.float32)
        assert net.forward(states).dtype == np.float32

    def test_replay_buffer_follows_dtype(self):
        buf = ReplayBuffer(capacity=8, state_dim=4, action_dim=2,
                           dtype=np.float32)
        assert buf._states.dtype == np.float32
        assert buf._next_states.dtype == np.float32
        assert buf._rewards.dtype == np.float32

    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            MLCRConfig(dtype="float16")

    def test_config_np_dtype(self):
        assert MLCRConfig().np_dtype == np.dtype("float32")
        assert MLCRConfig(dtype="float64").np_dtype == np.dtype("float64")


class TestFusedQKV:
    def test_forward_matches_unfused_reference(self, rng):
        """The fused (D, 3D) projection computes the textbook unfused MHA."""
        mha = MultiHeadAttention(model_dim=8, n_heads=2, rng=rng)
        x = np.random.default_rng(1).normal(size=(2, 5, 8))
        d = mha.model_dim
        w = mha.w_qkv.value
        # Reference: three separate projections, explicit per-head loops.
        q = x @ w[:, :d]
        k = x @ w[:, d:2 * d]
        v = x @ w[:, 2 * d:]

        def split(t):
            b, n, _ = t.shape
            return t.reshape(b, n, mha.n_heads, mha.head_dim).transpose(
                0, 2, 1, 3
            )

        qh, kh, vh = split(q), split(k), split(v)
        scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(mha.head_dim)
        ctx = _softmax(scores, axis=-1) @ vh
        ctx = ctx.transpose(0, 2, 1, 3).reshape(2, 5, d)
        expected = ctx @ mha.w_o.weight.value + mha.w_o.bias.value
        assert np.allclose(mha.forward(x), expected, atol=1e-12)

    def test_fused_init_matches_unfused_rng_stream(self):
        """Fused init draws the same uniforms as the old w_q/w_k/w_v order."""
        mha = MultiHeadAttention(model_dim=8, n_heads=2,
                                 rng=np.random.default_rng(5))
        ref = np.random.default_rng(5)
        for j in range(3):
            block = glorot_init(ref, 8, 8)
            assert np.array_equal(mha.w_qkv.value[:, 8 * j:8 * (j + 1)], block)
        w_o = Linear(8, 8, ref)
        assert np.array_equal(mha.w_o.weight.value, w_o.weight.value)

    def test_backward_weight_grads_match_unfused_formulation(self, rng):
        """d w_qkv columns equal the three separate-projection gradients."""
        mha = MultiHeadAttention(model_dim=8, n_heads=2, rng=rng)
        x = np.random.default_rng(2).normal(size=(3, 4, 8))
        out = mha.forward(x)
        grad = np.ones_like(out)
        mha.backward(grad)
        d = mha.model_dim
        gw = mha.w_qkv.grad
        # Each projection's gradient is x^T @ (d qkv slice); the fused
        # gradient must be exactly their concatenation -- nonzero blocks.
        assert gw.shape == (d, 3 * d)
        for j in range(3):
            assert np.abs(gw[:, d * j:d * (j + 1)]).max() > 0


class TestInferenceMode:
    def test_forward_bitwise_equal(self):
        net = small_net()
        states = random_states(net)
        train_out = net.forward(states)
        with net.inference():
            infer_out = net.forward(states)
        assert np.array_equal(train_out, infer_out)

    def test_inference_forward_leaves_no_cache(self):
        net = small_net()
        states = random_states(net)
        with net.inference():
            out = net.forward(states)
        with pytest.raises(RuntimeError):
            net.backward(np.ones_like(out))

    def test_mode_restored_after_context(self):
        net = small_net()
        assert net.training
        with net.inference():
            assert not net.training
            assert not net.blocks[0].attn.training
        assert net.training
        assert net.blocks[0].attn.training

    def test_train_false_propagates_recursively(self):
        net = small_net().train(False)
        assert not net.out_norm.training
        assert not net.blocks[1].attn.w_o.training
        net.train(True)
        assert net.blocks[1].attn.w_o.training

    def test_target_network_permanently_in_inference(self):
        agent = DQNAgent(network_factory=small_net, config=DQNConfig(),
                         rng=np.random.default_rng(0))
        assert not agent.target.training
        assert agent.online.training


class TestParameterCache:
    def test_parameters_memoized(self):
        net = small_net()
        assert net.parameters() is net.parameters()

    def test_invalidate_rebuilds(self):
        net = small_net()
        first = net.parameters()
        net.invalidate_parameter_cache()
        second = net.parameters()
        assert first is not second
        assert [p.name for p in first] == [p.name for p in second]

    def test_cache_holds_live_parameters(self):
        """The cached list aliases the real Parameters (updates propagate)."""
        net = small_net()
        p = net.parameters()[0]
        p.value[...] = 42.0
        assert net.parameters()[0].value.flat[0] == 42.0


class TestBatchedRollouts:
    def test_act_batch_matches_sequential_act(self):
        agent = DQNAgent(network_factory=small_net, config=DQNConfig(),
                         rng=np.random.default_rng(0))
        states = random_states(agent.online, batch=8)
        masks = np.ones((8, agent.action_dim), dtype=bool)
        masks[2, :2] = False
        batched = agent.act_batch(states, masks)
        sequential = [
            agent.act(states[i], masks[i], epsilon=0.0) for i in range(8)
        ]
        assert np.array_equal(batched, sequential)

    def test_act_batch_validates_inputs(self):
        agent = DQNAgent(network_factory=small_net, config=DQNConfig(),
                         rng=np.random.default_rng(0))
        states = random_states(agent.online, batch=4)
        with pytest.raises(ValueError):
            agent.act_batch(states, np.ones((3, agent.action_dim), bool))
        bad = np.ones((4, agent.action_dim), dtype=bool)
        bad[1] = False
        with pytest.raises(ValueError):
            agent.act_batch(states, bad)

    def test_batched_validation_matches_sequential(self):
        """Lockstep eval lanes reproduce one-lane eval episodes."""
        cfg = tiny_config(eval_episodes=3)
        batched = MLCRTrainer(make_env(), cfg)
        sequential = MLCRTrainer(make_env(), cfg)

        episodes = [EVAL_EPISODE_BASE + i for i in range(3)]
        got = batched.rollout(["eval"] * 3, episodes)
        want = [sequential.rollout(["eval"], [ep])[0] for ep in episodes]
        assert got == want

    def test_batched_demos_match_sequential_stats(self):
        """Demonstration lanes produce the sequential episodes' outcomes and
        fill the replay buffer with the same number of transitions."""
        cfg = tiny_config()
        batched = MLCRTrainer(make_env(), cfg)
        sequential = MLCRTrainer(make_env(), cfg)

        got = batched.rollout(["greedy", "exact"], [0, 1])
        want = [
            sequential.rollout(["greedy"], [0])[0],
            sequential.rollout(["exact"], [1])[0],
        ]
        assert got == want
        assert len(batched.agent.buffer) == len(sequential.agent.buffer)
        assert batched._global_step == sequential._global_step


class TestCheckpointBackCompat:
    def test_v2_roundtrip_preserves_dtype(self, tmp_path):
        cfg = tiny_config()  # default float32 fast path
        scheduler, _ = train_mlcr_scheduler(
            workload_factory=lambda ep: tiny_workload(seed=ep % 2),
            sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
            config=cfg,
        )
        path = save_scheduler(scheduler, cfg, tmp_path / "v2.npz")
        loaded = load_scheduler(path)
        assert loaded.agent.online.dtype == np.dtype("float32")
        original = scheduler.agent.online.state_dict()
        restored = loaded.agent.online.state_dict()
        for key in original:
            assert np.array_equal(original[key], restored[key]), key
