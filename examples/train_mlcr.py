#!/usr/bin/env python
"""Train the MLCR DRL scheduler and evaluate it against all baselines.

The full paper pipeline (Algorithm 1): build a workload family, train the
masked DQN offline on held-out seeds, then evaluate on fresh seeds against
LRU / FaasCache / KeepAlive / Greedy-Match.

Usage::

    python examples/train_mlcr.py [--episodes N] [--pool tight|moderate|loose]
        [--workload Overall|HI-Sim|LO-Sim|...] [--verbose]
"""

import argparse
import time

import numpy as np

from repro import SimulationConfig
from repro.analysis.report import ascii_table
from repro.core.config import MLCRConfig
from repro.core.mlcr import train_mlcr_scheduler
from repro.drl.dqn import DQNConfig
from repro.experiments.common import (
    ExperimentScale,
    evaluate_scheduler,
    make_training_factory,
    pool_sizes,
)
from repro.experiments.parallel import BASELINE_KEYS, build_scheduler
from repro.workloads.fstartbench import WORKLOAD_BUILDERS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=16)
    parser.add_argument("--pool", choices=["tight", "moderate", "loose"],
                        default="tight")
    parser.add_argument("--workload", default="Overall",
                        choices=sorted(WORKLOAD_BUILDERS))
    parser.add_argument("--eval-seeds", type=int, default=3)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    builder = WORKLOAD_BUILDERS[args.workload]
    sizing = builder(seed=0)
    capacity = pool_sizes(sizing)[args.pool.capitalize()]
    scale = ExperimentScale.from_env()

    config = MLCRConfig(
        n_slots=scale.n_slots,
        model_dim=scale.model_dim,
        head_hidden=scale.model_dim,
        n_episodes=args.episodes,
        demo_episodes=4,
        eval_every=3,
        eval_episodes=2,
        epsilon_decay_steps=args.episodes * 250,
        shaping_coef=1.5,
        dqn=DQNConfig(batch_size=32, target_sync_every=150, gamma=0.99,
                      lr=7e-4),
    )

    print(f"training MLCR on {args.workload} at {args.pool} pool "
          f"({capacity:.0f} MB), {args.episodes} episodes...")
    t0 = time.time()
    scheduler, history = train_mlcr_scheduler(
        workload_factory=make_training_factory(
            lambda s: builder(seed=s), scale
        ),
        sim_config=SimulationConfig(pool_capacity_mb=capacity),
        config=config,
        verbose=args.verbose,
    )
    print(f"trained in {time.time() - t0:.1f}s; "
          f"training latency {history.episode_latencies[0]:.1f}s -> "
          f"{history.episode_latencies[-1]:.1f}s "
          f"(best validation {history.best_eval_latency:.1f}s)\n")

    results = {}
    for seed in range(args.eval_seeds):
        workload = builder(seed=seed)
        baselines = [build_scheduler(key) for key in BASELINE_KEYS]
        for policy in baselines + [scheduler]:
            res = evaluate_scheduler(policy, workload, capacity,
                                     args.pool.capitalize())
            results.setdefault(policy.name, []).append(res)

    rows = []
    for name, runs in results.items():
        rows.append([
            name,
            f"{np.mean([r.total_startup_s for r in runs]):.1f}",
            f"{np.mean([r.mean_startup_s for r in runs]) * 1e3:.0f}",
            f"{np.mean([r.cold_starts for r in runs]):.1f}",
            f"{np.mean([r.evictions for r in runs]):.1f}",
        ])
    print(ascii_table(
        ["policy", "total startup [s]", "mean [ms]", "cold starts",
         "evictions"],
        rows,
        title=f"Evaluation on {args.eval_seeds} held-out seeds",
    ))


if __name__ == "__main__":
    main()
