"""Micro-benchmarks for the DRL engine fast path (not a paper figure).

Measures the three hot paths the float32/fused-QKV/inference-mode work
targets: greedy action latency, DQN train-step throughput, and the batched
vs sequential greedy evaluation rollout.  Each benchmark carries an
absolute-threshold backstop; the conftest regression guard compares against
``bench_baseline.json``.
"""

import time

import numpy as np

from repro.cluster.simulator import SimulationConfig
from repro.core.config import MLCRConfig
from repro.core.env import SchedulingEnv
from repro.core.state import StateEncoder
from repro.core.trainer import EVAL_EPISODE_BASE, MLCRTrainer
from repro.drl.dqn import DQNAgent, DQNConfig
from repro.drl.network import AttentionQNetwork
from repro.drl.replay import Transition
from repro.workloads.fstartbench import overall_workload


def make_agent(dtype=np.float32, batch_size=32):
    """A training-shaped agent with a full replay buffer."""
    rng = np.random.default_rng(0)

    def factory():
        return AttentionQNetwork(
            global_dim=40, slot_dim=12, n_slots=12,
            rng=np.random.default_rng(1),
            model_dim=64, head_hidden=64, dtype=dtype,
        )

    agent = DQNAgent(
        network_factory=factory,
        config=DQNConfig(batch_size=batch_size, buffer_capacity=1024,
                         target_sync_every=1_000_000),
        rng=rng,
    )
    n_actions = agent.action_dim
    for _ in range(256):
        mask = np.ones(n_actions, dtype=bool)
        agent.remember(Transition(
            state=rng.normal(size=agent.online.state_dim),
            action=int(rng.integers(n_actions)),
            reward=float(rng.normal()),
            next_state=rng.normal(size=agent.online.state_dim),
            next_mask=mask,
            done=bool(rng.random() < 0.05),
        ))
    return agent


def make_trainer(n_eval=12, dtype="float32"):
    """Trainer over a FStartBench workload slice (untrained policy).

    ``model_dim=128`` sits between the CPU default (64) and the paper's 512
    so the benchmark exercises a regime where the network forward -- the
    thing the fast path accelerates -- carries a realistic share of the
    per-decision cost.
    """
    cfg = MLCRConfig(
        n_slots=12, model_dim=128, head_hidden=64, dtype=dtype,
        n_episodes=1, demo_episodes=0, eval_every=0, eval_episodes=n_eval,
        dqn=DQNConfig(batch_size=32, buffer_capacity=1024),
    )
    encoder = StateEncoder(n_slots=cfg.n_slots)
    env = SchedulingEnv(
        workload_factory=lambda ep: overall_workload(seed=ep % 17, n=150),
        sim_config=SimulationConfig(pool_capacity_mb=2048.0),
        encoder=encoder,
    )
    return MLCRTrainer(env, cfg)


def test_act_latency(benchmark):
    """One greedy masked ``act()`` -- the serving-path decision latency."""
    agent = make_agent()
    rng = np.random.default_rng(2)
    state = rng.normal(size=agent.online.state_dim)
    mask = np.ones(agent.action_dim, dtype=bool)

    benchmark(lambda: agent.act(state, mask, epsilon=0.0))
    # Inference-mode float32 forward on a batch of one: sub-millisecond.
    assert benchmark.stats["mean"] < 0.005


def test_train_step_throughput(benchmark, emit):
    """One DQN train step (float32), with the float64 ratio reported."""
    agent = make_agent(dtype=np.float32)
    benchmark(agent.train_step)

    # One-shot float64 reference for the speedup report (not benchmarked:
    # the ratio is informational, the float32 mean is the guarded number).
    agent64 = make_agent(dtype=np.float64)
    agent64.train_step()
    reps, f64_mean = 10, float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            agent64.train_step()
        f64_mean = min(f64_mean, (time.perf_counter() - start) / reps)
    speedup = f64_mean / benchmark.stats["mean"]
    emit(
        "DQN train_step: "
        f"float32 {benchmark.stats['mean'] * 1e3:.2f} ms vs "
        f"float64 {f64_mean * 1e3:.2f} ms ({speedup:.1f}x)"
    )
    assert benchmark.stats["mean"] < 0.05
    # Conservative floor (typical ratio 1.6-1.9x; the box is shared).
    assert speedup > 1.2


def test_eval_rollout_batched_vs_sequential(benchmark, emit):
    """Fast-path eval rollouts vs the pre-fast-path reference engine.

    Fast path: float32 network, lockstep batched greedy lanes (one
    ``(E, state_dim)`` inference forward per step).  Reference: float64
    network, one one-lane rollout per episode, one batch-1 forward per
    decision.  Outcome parity between batched and one-lane rollouts is
    pinned separately in ``tests/test_drl_fastpath.py``.
    """
    n_eval = 12
    episodes = [EVAL_EPISODE_BASE + i for i in range(n_eval)]
    batched_trainer = make_trainer(n_eval, dtype="float32")

    results = benchmark(
        lambda: batched_trainer.rollout(
            ["eval"] * n_eval, episodes
        )
    )
    assert len(results) == n_eval

    # One-shot reference timing (not benchmarked: the ratio is the story,
    # the batched mean is the guarded number).
    sequential_trainer = make_trainer(n_eval, dtype="float64")
    start = time.perf_counter()
    sequential = [
        sequential_trainer.rollout(["eval"], [ep])[0] for ep in episodes
    ]
    seq_time = time.perf_counter() - start
    assert len(sequential) == n_eval
    speedup = seq_time / benchmark.stats["mean"]

    # Acting-path-only comparison -- the component this PR accelerates:
    # float64 one-state-at-a-time ``act()`` (reference engine) vs float32
    # ``act_batch()`` (fast path).  The end-to-end ratio above is bounded
    # by the simulator + encoder, which both paths pay identically.
    fast = batched_trainer.agent
    ref = sequential_trainer.agent
    rng = np.random.default_rng(3)
    states = rng.normal(size=(n_eval, fast.online.state_dim))
    masks = np.ones((n_eval, fast.action_dim), dtype=bool)
    reps = 30
    start = time.perf_counter()
    for _ in range(reps):
        for i in range(n_eval):
            ref.act(states[i], masks[i], epsilon=0.0)
    act_seq = (time.perf_counter() - start) / reps
    start = time.perf_counter()
    for _ in range(reps):
        fast.act_batch(states, masks)
    act_batched = (time.perf_counter() - start) / reps
    act_speedup = act_seq / act_batched

    emit(
        f"Greedy eval rollout ({n_eval} episodes): "
        f"batched float32 {benchmark.stats['mean']:.3f} s vs "
        f"sequential float64 {seq_time:.3f} s ({speedup:.1f}x end-to-end); "
        f"acting path {act_speedup:.1f}x "
        f"({act_seq * 1e3:.2f} ms -> {act_batched * 1e3:.2f} ms per sweep)"
    )
    assert speedup > 1.5
    assert act_speedup > 3.0
