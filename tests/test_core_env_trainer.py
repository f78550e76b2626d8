"""Tests for the RL environment and the trainer (Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster.simulator import SimulationConfig
from repro.core.config import MLCRConfig
from repro.core.env import REWARD_SCALE, SchedulingEnv
from repro.core.mlcr import MLCRScheduler, train_mlcr_scheduler
from repro.core.state import StateEncoder
from repro.core.trainer import (
    EPSILON_END,
    EPSILON_START,
    EVAL_EPISODE_BASE,
    MLCRTrainer,
    q_network_factory,
)
from repro.drl.dqn import DQNAgent, DQNConfig
from repro.drl.replay import Transition
from repro.drl.schedules import LinearDecayEpsilon
from repro.workloads.workload import Workload

from conftest import make_image, make_invocation, make_spec


def tiny_workload(seed=0, n=12):
    rng = np.random.default_rng(seed)
    specs = [
        make_spec(name="fa", image=make_image("a")),
        make_spec(name="fb", image=make_image("b", runtime_names=("numpy",))),
    ]
    invs = [
        make_invocation(specs[i % 2], i, arrival_time=float(rng.uniform(0, 30)),
                        execution_time_s=0.5)
        for i in range(n)
    ]
    return Workload.from_invocations(f"tiny{seed}", invs)


def tiny_config(**kw):
    defaults = dict(
        n_slots=4,
        model_dim=8,
        head_hidden=8,
        n_episodes=2,
        demo_episodes=1,
        eval_every=2,
        eval_episodes=1,
        epsilon_decay_steps=50,
        dqn=DQNConfig(batch_size=4, buffer_capacity=256,
                      target_sync_every=10),
    )
    defaults.update(kw)
    return MLCRConfig(**defaults)


@pytest.fixture
def env():
    encoder = StateEncoder(n_slots=4)
    return SchedulingEnv(
        workload_factory=lambda ep: tiny_workload(seed=ep % 3),
        sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
        encoder=encoder,
    )


class TestEnv:
    def test_episode_runs_to_completion(self, env):
        encoded = env.reset(0)
        steps = 0
        while encoded is not None:
            result = env.step(encoded.mask.size - 1, encoded)  # always cold
            encoded = result.state
            steps += 1
        assert steps == 12
        assert result.done

    def test_reward_is_negative_scaled_latency(self, env):
        encoded = env.reset(0)
        result = env.step(encoded.mask.size - 1, encoded)
        assert result.reward == pytest.approx(
            -result.startup_latency_s * REWARD_SCALE
        )

    def test_step_before_reset_rejected(self, env):
        with pytest.raises(RuntimeError):
            env.step(0, None)

    def test_finish_returns_result(self, env):
        encoded = env.reset(0)
        while encoded is not None:
            encoded = env.step(encoded.mask.size - 1, encoded).state
        result = env.finish()
        assert result.telemetry.n_invocations == 12

    def test_shaped_rewards_telescope(self):
        """With shaping, total shaped return == plain return (phi end = 0)."""
        encoder = StateEncoder(n_slots=4)
        gamma = 1.0  # telescoping is exact when gamma == 1
        env_plain = SchedulingEnv(
            lambda ep: tiny_workload(0),
            SimulationConfig(pool_capacity_mb=10_000.0),
            StateEncoder(n_slots=4),
        )
        env_shaped = SchedulingEnv(
            lambda ep: tiny_workload(0),
            SimulationConfig(pool_capacity_mb=10_000.0),
            encoder, shaping_coef=2.0, gamma=gamma,
        )

        def rollout(env):
            total = 0.0
            encoded = env.reset(0)
            while encoded is not None:
                r = env.step(encoded.mask.size - 1, encoded)
                total += r.reward
                encoded = r.state
            return total

        assert rollout(env_shaped) == pytest.approx(rollout(env_plain),
                                                    abs=1e-9)


class TestTrainer:
    def test_training_completes(self, env):
        trainer = MLCRTrainer(env, tiny_config())
        history = trainer.train()
        assert len(history.episode_latencies) == 2
        assert len(history.eval_latencies) >= 1
        assert history.best_eval_latency < float("inf")

    def test_demo_episodes_fill_buffer(self, env):
        trainer = MLCRTrainer(env, tiny_config(n_episodes=1))
        trainer.train()
        # 1 demo + 1 training + eval episodes; buffer holds demo+train
        # transitions (12 per episode).
        assert len(trainer.agent.buffer) >= 20

    def test_losses_recorded(self, env):
        trainer = MLCRTrainer(env, tiny_config())
        history = trainer.train()
        assert history.losses, "no gradient steps happened"

    def test_mlp_variant(self, env):
        trainer = MLCRTrainer(env, tiny_config(use_attention=False))
        trainer.train()
        from repro.drl.network import MLPQNetwork

        assert isinstance(trainer.agent.online, MLPQNetwork)

    def test_no_mask_variant(self, env):
        trainer = MLCRTrainer(env, tiny_config(use_mask=False))
        history = trainer.train()
        assert len(history.episode_latencies) == 2

    def test_one_transition_per_decision_terminal_after_last_step(self):
        """Every decision stores one one-step transition; the terminal one
        enters the buffer after the episode's last gradient step."""
        env = SchedulingEnv(
            lambda ep: tiny_workload(0, n=10),
            SimulationConfig(pool_capacity_mb=10_000.0),
            StateEncoder(n_slots=4),
        )
        trainer = MLCRTrainer(env, tiny_config(
            n_episodes=1, demo_episodes=0, eval_every=0, train_every=1,
        ))
        agent = trainer.agent
        events = []
        remember, train_step = agent.remember, agent.train_step

        def spy_remember(transition):
            events.append("terminal" if transition.done else "remember")
            remember(transition)

        def spy_train_step():
            events.append("train")
            return train_step()

        agent.remember = spy_remember
        agent.train_step = spy_train_step
        trainer.train()
        assert events == ["remember", "train"] * 9 + ["train", "terminal"]

    def test_eval_episodes_use_held_out_indices(self):
        seen = []

        def factory(ep):
            seen.append(ep)
            return tiny_workload(0)

        env = SchedulingEnv(
            factory, SimulationConfig(pool_capacity_mb=10_000.0),
            StateEncoder(n_slots=4),
        )
        MLCRTrainer(env, tiny_config(n_episodes=2, demo_episodes=0)).train()
        assert any(ep >= EVAL_EPISODE_BASE for ep in seen)


def algorithm_one_reference(env, cfg):
    """Algorithm 1's DQN episodes written out straight on ``env``."""
    agent = DQNAgent(q_network_factory(cfg, env.encoder), cfg.dqn,
                     np.random.default_rng(cfg.seed + 1))
    epsilon = LinearDecayEpsilon(EPSILON_START, EPSILON_END,
                                 cfg.epsilon_decay_steps)
    terminal_mask = np.zeros(agent.action_dim, dtype=bool)
    terminal_mask[-1] = True
    losses, step = [], 0
    for episode in range(cfg.n_episodes):
        encoded = env.reset(episode)
        while encoded is not None:
            action = agent.act(encoded.state, encoded.mask,
                               epsilon.value(step))
            result = env.step(action, encoded)
            following = result.state
            if following is not None:
                agent.remember(Transition(encoded.state, action, result.reward,
                                          following.state, following.mask,
                                          False))
            if step % cfg.train_every == 0:
                loss = agent.train_step()
                if loss is not None:
                    losses.append(loss)
            step += 1
            if following is None:
                agent.remember(Transition(encoded.state, action, result.reward,
                                          np.zeros_like(encoded.state),
                                          terminal_mask, True))
            encoded = following
        env.finish()
    return agent, losses, step


class TestAlgorithmOneReference:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_learning_episodes_match_straight_line_reference(self, dtype):
        """``train`` without demonstrations or validation is bit-identical
        to a straight Algorithm 1 loop over the environment and agent."""
        cfg = tiny_config(n_episodes=3, demo_episodes=0, eval_every=0,
                          dtype=dtype)

        def make_env():
            return SchedulingEnv(
                lambda ep: tiny_workload(seed=ep % 3),
                SimulationConfig(pool_capacity_mb=10_000.0),
                StateEncoder(n_slots=4),
                shaping_coef=cfg.shaping_coef, gamma=cfg.dqn.gamma,
            )

        trainer = MLCRTrainer(make_env(), cfg)
        history = trainer.train()
        agent, losses, step = algorithm_one_reference(make_env(), cfg)

        assert losses and history.losses == losses
        assert trainer._global_step == step
        for got_net, want_net in ((trainer.agent.online, agent.online),
                                  (trainer.agent.target, agent.target)):
            got, want = got_net.state_dict(), want_net.state_dict()
            assert got.keys() == want.keys()
            for key in got:
                assert np.array_equal(got[key], want[key]), key
        for name in ("_states", "_actions", "_rewards", "_next_states",
                     "_next_masks", "_dones"):
            assert np.array_equal(getattr(trainer.agent.buffer, name),
                                  getattr(agent.buffer, name)), name
        assert len(trainer.agent.buffer) == len(agent.buffer) == step


class TestTrainMLCRScheduler:
    def test_end_to_end(self):
        scheduler, history = train_mlcr_scheduler(
            workload_factory=lambda ep: tiny_workload(seed=ep % 2),
            sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
            config=tiny_config(),
        )
        assert isinstance(scheduler, MLCRScheduler)
        assert history.episode_latencies
