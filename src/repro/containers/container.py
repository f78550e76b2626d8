"""Simulated container lifecycle.

A container is created for a function invocation, runs it, and afterwards may
be kept alive ("warm") in the pool.  Multi-level reuse lets a *different*
function claim it, after which the container cleaner repacks it (its image
becomes the new function's image).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.containers.image import FunctionImage
from repro.containers.volumes import Volume


class ContainerState(enum.Enum):
    """Container lifecycle states (paper: idle / busy / waiting).

    A claimed container is STARTING from its claim until its function
    finishes executing: startup and execution are one busy span, and
    nothing in the simulator reads the boundary between them.
    """

    STARTING = "starting"  # startup phases, then the function, executing
    IDLE = "idle"          # warm, in the pool, reusable
    EVICTED = "evicted"    # removed from the pool, gone


@dataclass
class Container:
    """A mutable simulated container.

    Attributes
    ----------
    container_id:
        Unique id assigned by the simulator.
    image:
        Current image (replaced when the cleaner repacks the container for a
        different function).
    state:
        Lifecycle state.
    created_at, last_used_at, busy_until:
        Simulation timestamps (seconds); ``busy_until`` is when the
        current invocation finishes executing.
    current_function:
        Name of the function occupying or last occupying the container.
    mounted_volumes:
        Volumes currently mounted (managed by the cleaner).
    reuse_count:
        How many times the container was claimed from the warm pool.
    """

    container_id: int
    image: FunctionImage
    state: ContainerState = ContainerState.STARTING
    created_at: float = 0.0
    last_used_at: float = 0.0
    busy_until: float = 0.0
    current_function: Optional[str] = None
    mounted_volumes: List[Volume] = field(default_factory=list)
    reuse_count: int = 0

    @property
    def memory_mb(self) -> float:
        """Warm-pool memory footprint of the container."""
        return self.image.memory_mb

    @property
    def is_idle(self) -> bool:
        return self.state is ContainerState.IDLE

    @property
    def is_busy(self) -> bool:
        return self.state is ContainerState.STARTING

    def idle_duration(self, now: float) -> float:
        """Seconds the container has sat idle; 0 when not idle."""
        if self.state is not ContainerState.IDLE:
            return 0.0
        return max(0.0, now - self.last_used_at)

    # -- state transitions -----------------------------------------------------
    def begin_startup(
        self, function_name: str, now: float, busy_until: float
    ) -> None:
        """Enter STARTING for ``function_name``: starting up, then executing
        until ``busy_until``."""
        self._require(ContainerState.STARTING, ContainerState.IDLE)
        self.state = ContainerState.STARTING
        self.current_function = function_name
        self.last_used_at = now
        self.busy_until = busy_until

    def finish_execution(self, now: float) -> None:
        """Execution done; the container becomes idle (kept warm)."""
        self._require(ContainerState.STARTING)
        self.state = ContainerState.IDLE
        self.last_used_at = now

    def evict(self) -> None:
        """Remove the container permanently."""
        self._require(ContainerState.IDLE)
        self.state = ContainerState.EVICTED

    def claim(self) -> None:
        """Claim an idle container for reuse (cleaner runs next)."""
        self._require(ContainerState.IDLE)
        self.state = ContainerState.STARTING
        self.reuse_count += 1

    def _require(self, *states: ContainerState) -> None:
        if self.state not in states:
            raise RuntimeError(
                f"container {self.container_id}: invalid transition from "
                f"{self.state.value} (expected one of "
                f"{[s.value for s in states]})"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Container#{self.container_id}[{self.state.value}, "
            f"{self.image.name}, {self.memory_mb:.0f}MB]"
        )
