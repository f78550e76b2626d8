"""Eviction (keep-alive) policies for the warm pool.

Three policies from the paper's comparison set:

* :class:`LRUEviction` -- evict least-recently-used idle containers until the
  newcomer fits (used by LRU, Greedy-Match and MLCR).
* :class:`FaasCacheEviction` -- FaasCache's greedy-dual priority
  (``clock + frequency * cost / size``); evicts the minimum-priority
  container and advances the clock (Fuerst & Sharma, ASPLOS'21).
* :class:`RejectNewcomerEviction` -- the KeepAlive baseline: a 10-minute TTL
  and, when the pool is full, simply reject the keep-warm request of a newly
  finished container.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional

from repro.cluster.pool import WarmPool
from repro.containers.container import Container


class EvictionPolicy(abc.ABC):
    """Decides which warm containers to evict to admit a newcomer.

    Attributes
    ----------
    ttl_s:
        Optional keep-alive time-to-live.  When set, the simulator expires
        pooled containers idle longer than this.
    """

    ttl_s: Optional[float] = None

    @abc.abstractmethod
    def select_victims(
        self, pool: WarmPool, incoming: Container, now: float
    ) -> Optional[List[Container]]:
        """Containers to evict so ``incoming`` fits, or ``None`` to reject it.

        Both engines call this only when ``incoming`` does not fit
        (``incoming.image.memory_mb > pool.free_mb``): the lifecycle's
        keep-alive admits a fitting newcomer without asking, so a policy
        cannot evict to admit a newcomer that already fits.  Every policy
        here returns ``[]`` for a fitting newcomer all the same (pinned by
        ``tests/test_cluster_eviction.py``).  The policy must return
        victims whose freed memory actually makes room; the pool's ``add``
        raises otherwise.
        """

    def on_function_start(
        self,
        function_name: str,
        startup_cost_s: float,
        memory_mb: float,
        now: float,
    ) -> None:
        """Hook: observe a function start (used by FaasCache's statistics)."""

    def reset(self) -> None:
        """Clear any accumulated state between runs."""


def start_hook(policy: EvictionPolicy) -> Optional[Callable[..., None]]:
    """``policy``'s bound :meth:`~EvictionPolicy.on_function_start`, or
    None when the policy keeps the base no-op (so an engine skips the
    per-start call entirely)."""
    if type(policy).on_function_start is EvictionPolicy.on_function_start:
        return None
    return policy.on_function_start


class LRUEviction(EvictionPolicy):
    """Evict least-recently-used idle containers until the newcomer fits."""

    def select_victims(
        self, pool: WarmPool, incoming: Container, now: float
    ) -> Optional[List[Container]]:
        """Containers to evict so the newcomer fits, or None to reject it."""
        memory_mb = incoming.image.memory_mb
        if memory_mb > pool.capacity_mb:  # never fits
            return None
        needed = memory_mb - pool.free_mb
        if needed <= 0:
            return []
        victims: List[Container] = []
        freed = 0.0
        # Walk the shard LRU-first in place; only the victims are copied.
        for container in pool:
            victims.append(container)
            freed += container.image.memory_mb
            if freed >= needed:
                return victims
        return None  # unreachable for consistent pools; defensive


class RejectNewcomerEviction(EvictionPolicy):
    """KeepAlive: 10-minute TTL; reject keep-warm requests when full."""

    def __init__(self, ttl_s: float = 600.0) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.ttl_s = ttl_s

    def select_victims(
        self, pool: WarmPool, incoming: Container, now: float
    ) -> Optional[List[Container]]:
        """Containers to evict so the newcomer fits, or None to reject it."""
        if incoming.image.memory_mb <= pool.free_mb:
            return []
        return None


class FaasCacheEviction(EvictionPolicy):
    """Greedy-dual keep-alive priority from FaasCache.

    Each warm container gets ``priority = clock + freq * cost / size`` where
    ``freq`` is the invocation count of its function, ``cost`` the observed
    startup latency and ``size`` the container memory.  Eviction removes the
    lowest-priority container and sets the clock to its priority, aging the
    rest of the cache.
    """

    def __init__(self) -> None:
        self._clock = 0.0
        self._freq: Dict[str, int] = {}
        self._cost: Dict[str, float] = {}

    def reset(self) -> None:
        """Clear per-run state."""
        self._clock = 0.0
        self._freq.clear()
        self._cost.clear()

    def on_function_start(
        self,
        function_name: str,
        startup_cost_s: float,
        memory_mb: float,
        now: float,
    ) -> None:
        """Observe a function start (frequency/cost statistics)."""
        self._freq[function_name] = self._freq.get(function_name, 0) + 1
        # Track the cold-ish cost: keep the max observed so a lucky warm
        # start does not make the function look cheap to restart.
        self._cost[function_name] = max(
            self._cost.get(function_name, 0.0), startup_cost_s
        )

    def priority(self, container: Container) -> float:
        """Greedy-dual priority of a warm container."""
        name = container.current_function or container.image.name
        freq = self._freq.get(name, 1)
        cost = self._cost.get(name, 1.0)
        size = max(container.image.memory_mb, 1.0)
        return self._clock + freq * cost / size

    def select_victims(
        self, pool: WarmPool, incoming: Container, now: float
    ) -> Optional[List[Container]]:
        """Containers to evict so the newcomer fits, or None to reject it."""
        memory_mb = incoming.image.memory_mb
        if memory_mb > pool.capacity_mb:  # never fits
            return None
        needed = memory_mb - pool.free_mb
        if needed <= 0:
            return []
        ranked = sorted(pool.containers(), key=self.priority)
        victims: List[Container] = []
        freed = 0.0
        for container in ranked:
            victims.append(container)
            freed += container.image.memory_mb
            if freed >= needed:
                # Age the cache: the clock advances to the last victim's
                # priority, exactly as greedy-dual prescribes.
                self._clock = self.priority(container)
                return victims
        return None
