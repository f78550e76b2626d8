"""Container substrate.

Simulated containers with three-level package images, the Table-I matcher,
the startup cost model (with per-phase breakdown used by Fig. 1), and the
container cleaner that repacks a warm container for a new function via volume
mount/unmount (Section III, "Container cleaner").
"""

from repro.containers.image import FunctionImage
from repro.containers.container import Container, ContainerState
from repro.containers.matching import (
    MatchLevel,
    match_level,
    match_level_sets,
)
from repro.containers.costmodel import (
    CostModelParams,
    StartupBreakdown,
    StartupCostModel,
    StartupPhase,
)
from repro.containers.volumes import Volume, VolumeKind, VolumeStore
from repro.containers.cleaner import CleanResult, ContainerCleaner, SecurityViolation

__all__ = [
    "FunctionImage",
    "Container",
    "ContainerState",
    "MatchLevel",
    "match_level",
    "match_level_sets",
    "CostModelParams",
    "StartupBreakdown",
    "StartupCostModel",
    "StartupPhase",
    "Volume",
    "VolumeKind",
    "VolumeStore",
    "CleanResult",
    "ContainerCleaner",
    "SecurityViolation",
]
