"""Serverless cluster simulator substrate.

A discrete-event simulator of an OpenWhisk-style serverless platform: a
stream of function invocations arrives, a pluggable scheduler decides between
cold start and multi-level warm reuse, containers execute and return to a
fixed-capacity warm pool, and a pluggable eviction policy reclaims space.
"""

from repro.cluster.events import Event
from repro.cluster.eventloop import (
    EventLoop,
    TimeSource,
    VirtualClock,
    WallClock,
)
from repro.cluster.faults import FaultConfig, FaultModel
from repro.cluster.pool import PoolFullError, PoolSet, WarmPool
from repro.cluster.eviction import (
    EvictionPolicy,
    FaasCacheEviction,
    LRUEviction,
    RejectNewcomerEviction,
)
from repro.cluster.lifecycle import ContainerLifecycle, InvalidDecisionError
from repro.cluster.placement import PlacementEngine
from repro.cluster.sketches import QuantileSketch
from repro.cluster.telemetry import BoundedTelemetry, InvocationRecord, Telemetry
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)

__all__ = [
    "Event",
    "EventLoop",
    "TimeSource",
    "VirtualClock",
    "WallClock",
    "WarmPool",
    "PoolSet",
    "PoolFullError",
    "FaultConfig",
    "FaultModel",
    "EvictionPolicy",
    "LRUEviction",
    "FaasCacheEviction",
    "RejectNewcomerEviction",
    "ContainerLifecycle",
    "PlacementEngine",
    "InvalidDecisionError",
    "Telemetry",
    "BoundedTelemetry",
    "QuantileSketch",
    "InvocationRecord",
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
]
