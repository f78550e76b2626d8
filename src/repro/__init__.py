"""MLCR: Multi-Level Container Reuse for serverless cold-start mitigation.

A from-scratch Python reproduction of "Tackling Cold Start in Serverless
Computing with Multi-Level Container Reuse" (IPDPS 2024): the three-level
container matcher, the DRL-based scheduler, the FStartBench benchmark and
the discrete-event serverless platform simulator it is evaluated on.

Quickstart::

    from repro import (
        overall_workload, ClusterSimulator, SimulationConfig,
        GreedyMatchScheduler,
    )

    workload = overall_workload(seed=0)
    scheduler = GreedyMatchScheduler()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=4096),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(workload, scheduler)
    print(result.summary())

See ``examples/`` for training the DRL scheduler and regenerating the
paper's figures.
"""

from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.containers.costmodel import CostModelParams, StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.core.config import MLCRConfig
from repro.core.mlcr import MLCRScheduler, train_mlcr_scheduler
from repro.schedulers import (
    ColdOnlyScheduler,
    FaasCacheScheduler,
    GreedyMatchScheduler,
    KeepAliveScheduler,
    LookaheadScheduler,
    LRUScheduler,
    Scheduler,
)
from repro.workloads import (
    Workload,
    build_workload,
    fstartbench_functions,
    overall_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "StartupCostModel",
    "CostModelParams",
    "FunctionImage",
    "MatchLevel",
    "match_level",
    "MLCRConfig",
    "MLCRScheduler",
    "train_mlcr_scheduler",
    "Scheduler",
    "ColdOnlyScheduler",
    "KeepAliveScheduler",
    "LRUScheduler",
    "FaasCacheScheduler",
    "GreedyMatchScheduler",
    "LookaheadScheduler",
    "Workload",
    "build_workload",
    "overall_workload",
    "fstartbench_functions",
    "__version__",
]
