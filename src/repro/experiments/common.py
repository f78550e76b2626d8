"""Shared experiment infrastructure.

* Pool sizing: the paper's *Loose* capacity is "the peak memory size of all
  running containers in the cluster"; we measure it with an unbounded-pool
  reference run.  *Tight* and *Moderate* are 1/5 and 1/2 of Loose.
* MLCR training cache: experiments share trained schedulers keyed by
  (workload family, capacity, config) so a benchmark session does not
  retrain for every figure.
* Policy registry: a trained policy is registered once per process as its
  policy-file bytes under their SHA-256 digest, the name a
  :class:`~repro.experiments.parallel.GridTask` runs it by.
* Scale control: ``REPRO_SCALE=fast|full|paper`` trades fidelity for wall
  time (training episodes, repeat counts).
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from repro.cluster.eviction import LRUEviction
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.containers.costmodel import StartupCostModel
from repro.core.config import MLCRConfig
from repro.core.mlcr import MLCRScheduler, train_mlcr_scheduler
from repro.core.persistence import save_scheduler
from repro.core.trainer import EVAL_EPISODE_BASE
from repro.drl.dqn import DQNConfig
from repro.schedulers.base import Scheduler
from repro.schedulers.lru import LRUScheduler
from repro.workloads.workload import Workload

POOL_LEVELS: Dict[str, float] = {"Tight": 0.2, "Moderate": 0.5, "Loose": 1.0}


@dataclass(frozen=True)
class ExperimentScale:
    """Budget knobs shared by every experiment.

    ``fast`` keeps benchmark wall time in minutes; ``full`` approaches the
    paper's budgets (50 repeats, long training) and is meant for overnight
    runs.
    """

    repeats: int
    train_episodes: int
    demo_episodes: int
    n_slots: int
    model_dim: int
    fig11_pool_fractions: Tuple[float, ...]
    restarts: int
    #: Streaming-replay scenario size (ext_stream_replay): functions in the
    #: synthetic Azure trace and total invocations streamed through the
    #: simulator.  ``full`` is the production-scale 10M-invocation replay.
    stream_functions: int = 300
    stream_invocations: int = 30_000

    @staticmethod
    def from_env() -> "ExperimentScale":
        mode = os.environ.get("REPRO_SCALE", "fast").lower()
        if mode in ("full", "paper"):
            return ExperimentScale(
                repeats=10, train_episodes=40, demo_episodes=4,
                n_slots=16, model_dim=64,
                fig11_pool_fractions=(0.25, 0.50, 0.75, 1.00),
                restarts=3,
                stream_functions=20_000, stream_invocations=10_000_000,
            )
        return ExperimentScale(
            repeats=3, train_episodes=12, demo_episodes=2,
            n_slots=12, model_dim=32,
            fig11_pool_fractions=(0.25, 1.00),
            restarts=2,
            stream_functions=300, stream_invocations=30_000,
        )

    def mlcr_config(self, seed: int = 0) -> MLCRConfig:
        """MLCR hyperparameters matching this scale's budget."""
        return MLCRConfig(
            n_slots=self.n_slots,
            model_dim=self.model_dim,
            head_hidden=self.model_dim,
            n_episodes=self.train_episodes,
            demo_episodes=self.demo_episodes,
            epsilon_decay_steps=max(500, self.train_episodes * 300),
            eval_every=3,
            eval_episodes=3,
            shaping_coef=1.5,
            dqn=DQNConfig(batch_size=32, target_sync_every=150,
                          gamma=0.99, lr=7e-4),
            seed=seed,
        )


@dataclass(frozen=True)
class MethodResult:
    """One (method, workload, capacity) evaluation."""

    method: str
    workload: str
    pool_label: str
    capacity_mb: float
    total_startup_s: float
    mean_startup_s: float
    cold_starts: int
    evictions: int
    peak_warm_memory_mb: float
    result: SimulationResult


# ---------------------------------------------------------------------------
# Pool sizing
# ---------------------------------------------------------------------------

def loose_capacity(workload: Workload) -> float:
    """Measure the paper's Loose capacity with an unbounded reference run.

    "Loose is set to the peak memory size of all running containers in the
    cluster": we measure the peak concurrent container memory of an
    exact-match-reuse (LRU-style) reference run with an unbounded pool --
    the container population a conventional keep-alive platform builds up.
    """
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=float("inf")), LRUEviction()
    )
    result = sim.run(workload, LRUScheduler())
    return result.telemetry.peak_live_memory_mb


def pool_sizes(workload: Workload) -> Dict[str, float]:
    """Tight / Moderate / Loose capacities for ``workload``."""
    loose = loose_capacity(workload)
    return {label: frac * loose for label, frac in POOL_LEVELS.items()}


# ---------------------------------------------------------------------------
# Sequential evaluation
# ---------------------------------------------------------------------------

#: The default-params cost model every sequential cell prices with: its
#: memo keeps each breakdown priced once per process, as a lane table's
#: model does for its lanes (prices are pure, so sharing it changes none).
_SHARED_COST_MODEL = StartupCostModel()


def evaluate_scheduler(
    scheduler: Scheduler,
    workload: Workload,
    capacity_mb: float,
    pool_label: str = "",
) -> MethodResult:
    """Run one scheduler over one workload at one capacity on the
    sequential :class:`~repro.cluster.simulator.ClusterSimulator`."""
    scheduler.reset()
    if hasattr(scheduler, "observe_workload"):
        scheduler.observe_workload(workload)
    sim = ClusterSimulator(
        SimulationConfig(
            pool_capacity_mb=capacity_mb, cost_model=_SHARED_COST_MODEL
        ),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(workload, scheduler)
    t = result.telemetry
    return MethodResult(
        method=scheduler.name,
        workload=workload.name,
        pool_label=pool_label,
        capacity_mb=capacity_mb,
        total_startup_s=t.total_startup_latency_s,
        mean_startup_s=t.mean_startup_latency_s,
        cold_starts=t.cold_starts,
        evictions=t.evictions,
        peak_warm_memory_mb=t.peak_warm_memory_mb,
        result=result,
    )


# ---------------------------------------------------------------------------
# MLCR training cache
# ---------------------------------------------------------------------------

_MLCR_CACHE: Dict[Tuple, Tuple[MLCRScheduler, MLCRConfig]] = {}

#: Training seeds are offset from evaluation seeds so the policy is evaluated
#: on unseen workload draws of the same family (the paper trains offline on
#: FStartBench traces, then deploys).
TRAIN_SEED_OFFSET = 1000


def make_training_factory(
    workload_builder: Callable[[int], Workload],
    scale: "ExperimentScale",
) -> Callable[[int], Workload]:
    """Map trainer episode indices to workload seeds.

    Training episodes cycle over a small pool of training seeds; validation
    episodes (indices >= :data:`EVAL_EPISODE_BASE`) use a disjoint held-out
    seed range.  Experiment evaluation seeds (0, 1, 2, ...) are never seen
    during training.
    """
    train_pool = max(1, scale.repeats * 2)

    def factory(ep: int) -> Workload:
        if ep >= EVAL_EPISODE_BASE:
            return workload_builder(
                TRAIN_SEED_OFFSET + 500 + (ep - EVAL_EPISODE_BASE) % 4
            )
        return workload_builder(TRAIN_SEED_OFFSET + ep % train_pool)

    return factory


def train_mlcr_for(
    workload_family: str,
    workload_builder: Callable[[int], Workload],
    capacity_mb: float,
    scale: Optional[ExperimentScale] = None,
) -> MLCRScheduler:
    """Train (or fetch a cached) MLCR scheduler for a workload family.

    Parameters
    ----------
    workload_family:
        Cache key component, e.g. ``"Overall"`` or ``"HI-Sim"``.
    workload_builder:
        Maps a seed to a workload; training uses seeds
        ``TRAIN_SEED_OFFSET + episode``.
    capacity_mb:
        Pool capacity to train against (policies are capacity-specific).
    """
    return _trained(workload_family, workload_builder, capacity_mb, scale)[0]


def mlcr_policy_for(
    workload_family: str,
    workload_builder: Callable[[int], Workload],
    capacity_mb: float,
    scale: Optional[ExperimentScale] = None,
) -> str:
    """The digest of :func:`train_mlcr_for`'s policy, registered with
    :func:`register_policy` so grid tasks can run it."""
    return register_policy(
        *_trained(workload_family, workload_builder, capacity_mb, scale)
    )


def _trained(
    workload_family: str,
    workload_builder: Callable[[int], Workload],
    capacity_mb: float,
    scale: Optional[ExperimentScale],
) -> Tuple[MLCRScheduler, MLCRConfig]:
    """The cached best-validated restart and the configuration it was
    trained with."""
    scale = scale or ExperimentScale.from_env()
    cfg = scale.mlcr_config()
    key = (workload_family, round(capacity_mb, 1), cfg, scale.restarts)
    if key in _MLCR_CACHE:
        return _MLCR_CACHE[key]

    # DQN training on small budgets is seed-sensitive: train a few restarts
    # and keep the one with the best *validation* latency (the validation
    # seeds are disjoint from both training and evaluation seeds).
    best = None
    factory = make_training_factory(workload_builder, scale)
    for restart in range(max(1, scale.restarts)):
        restart_cfg = replace(cfg, seed=cfg.seed + 1017 * restart)
        scheduler, history = train_mlcr_scheduler(
            workload_factory=factory,
            sim_config=SimulationConfig(pool_capacity_mb=capacity_mb),
            config=restart_cfg,
        )
        if best is None or history.best_eval_latency < best[1].best_eval_latency:
            best = (scheduler, history, restart_cfg)
    _MLCR_CACHE[key] = (best[0], best[2])
    return _MLCR_CACHE[key]


def clear_mlcr_cache() -> None:
    """Drop all cached trained schedulers (used by tests)."""
    _MLCR_CACHE.clear()


# ---------------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------------

#: Registered policy files by the SHA-256 hex digest of their bytes.
_POLICY_FILES: Dict[str, bytes] = {}


def register_policy(scheduler: MLCRScheduler, config: MLCRConfig) -> str:
    """Register a trained policy; returns the digest that names it.

    The policy is kept as its :func:`~repro.core.persistence.save_scheduler`
    bytes (a pure function of the weights and ``config``), so the same
    policy always registers under the same digest.
    """
    buffer = io.BytesIO()
    save_scheduler(scheduler, config, buffer)
    return register_policy_file(buffer.getvalue())


def register_policy_file(data: bytes) -> str:
    """Register a policy file's bytes; returns their SHA-256 hex digest.

    The bytes are loaded (and a bad file rejected) where a grid task runs
    them, by :func:`~repro.core.persistence.load_scheduler`.
    """
    digest = hashlib.sha256(data).hexdigest()
    _POLICY_FILES[digest] = data
    return digest


def registered_policy(digest: str) -> bytes:
    """The policy-file bytes registered under ``digest`` (``KeyError``
    when none is)."""
    try:
        return _POLICY_FILES[digest]
    except KeyError:
        raise KeyError(
            f"unknown policy {digest!r}; register it with register_policy"
        ) from None
