"""State encoding and action masking for the DRL scheduler.

The paper's state (Section IV-B) combines workload-related features (the
function's three package levels, arrival interval) with system-related
features (per-container package/status information and cluster-wide pool
state).  We encode them as:

* a **global segment**: bag-of-packages vector of the invoked function over
  the catalog, its init time/size/memory, the arrival interval, and
  cluster-wide pool features;
* ``n_slots`` **container segments**: presence flag, Table-I match level
  (one-hot), estimated reuse latency and saving vs. cold (the Fig. 2 table,
  computed from the cost model), idle duration, memory, the size of the
  runtime payload that repacking would discard, and how many other idle
  containers offer at least the same match depth (redundancy -- taking a
  redundant container is free, taking the only deep match is not).

Container slots are filled deepest-match-first so that the most relevant
candidates are always visible even when the pool holds more than
``n_slots`` idle containers.  The **action mask** marks reusable slots plus
the always-valid cold action (paper Section IV-C: "no match" containers are
filtered out rather than explored); when a full (L3) match is visible, the
shallower reuses it dominates are masked too.

The encoder reads exactly what :meth:`~repro.schedulers.base.Scheduler.\
decide` receives: the warm pool, the invocation (whose
``arrival_time`` is the decision time) and the cost model.  Encoding is
incremental: bag-of-packages vectors are cached per image configuration,
per-depth idle counts come from the warm pool's match index
(``pool.match_depth_counts``), the redundancy feature uses precomputed
suffix sums, and the visible candidates are taken level by level from the
index buckets (a partial selection of the ``n_slots`` most recent per
level), so no container is re-matched and the pool is never sorted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.pool import PoolSet, _mru_key
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel
from repro.packages.catalog import PackageCatalog, default_catalog
from repro.packages.package import PackageLevel, PackageSet
from repro.schedulers.base import COLD, PoolDecision
from repro.workloads.functions import FunctionSpec
from repro.workloads.workload import Invocation

# Aliases: an enum member read off its class costs a descriptor call.
_NO_MATCH, _L1, _L2, _L3 = (
    MatchLevel.NO_MATCH, MatchLevel.L1, MatchLevel.L2, MatchLevel.L3)

#: Levels in ranking order; each index bucket holds its level and deeper.
_RANK_LEVELS = (_L3, _L2, _L1, _NO_MATCH)

# Feature-scaling constants: chosen so typical values land in ~[0, 3].
_LATENCY_SCALE = 0.1     # seconds -> tenths of ten-seconds
_MEMORY_SCALE = 1e-3     # MB -> GB
_INIT_SCALE = 0.5


@dataclass(frozen=True)
class EncodedState:
    """The encoder's output for one decision point."""

    state: np.ndarray                 # flat (global_dim + n_slots * slot_dim,)
    mask: np.ndarray                  # (n_slots + 1,) bool; last = cold start
    slot_containers: Tuple[Optional[Container], ...]  # slot -> container
    slot_matches: Tuple[MatchLevel, ...]              # slot -> match level

    def decision_for(self, action: int) -> PoolDecision:
        """Translate a (possibly invalid) action index into a
        :data:`~repro.schedulers.base.PoolDecision`.

        Following the paper ("if i is larger than the actual number of warm
        containers ... it also means cold start"), actions pointing at an
        empty slot or at a no-match container fall back to a cold start --
        this is what makes running without the action mask well-defined.
        """
        if action < 0 or action > len(self.slot_containers):
            raise ValueError(f"action {action} out of range")
        if action == len(self.slot_containers):
            return COLD
        container = self.slot_containers[action]
        if container is None or self.slot_matches[action] is _NO_MATCH:
            return COLD
        return container, False, ()


class StateEncoder:
    """Encode decision points ``(pool, invocation, cost_model)`` into
    fixed-size vectors."""

    SLOT_DIM = 12
    #: Exponential decay applied to per-image arrival counts at each arrival;
    #: the resulting "demand" features tell the policy how hot a container's
    #: current stack is in the recent workload (the temporal signal the
    #: paper's DRL learns from arrival patterns).
    DEMAND_DECAY = 0.97

    def __init__(
        self,
        n_slots: int,
        catalog: PackageCatalog | None = None,
    ) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self.catalog = catalog or default_catalog()
        self._key_index: Dict[str, int] = {
            key: i for i, key in enumerate(self.catalog.key_order())
        }
        self._n_keys = len(self._key_index)
        self._last_arrival: Optional[float] = None
        self._image_demand: Dict[object, float] = {}
        self._demand_total = 0.0
        # Image-keyed cache.  Survives reset(): it depends only on the
        # (immutable) image configurations, not on episode state.
        self._bag_cache: Dict[object, np.ndarray] = {}

    # -- dimensions --------------------------------------------------------
    @property
    def global_dim(self) -> int:
        # bag-of-packages + 8 scalars + per-match-level idle counts (4).
        return self._n_keys + 8 + 4

    @property
    def slot_dim(self) -> int:
        return self.SLOT_DIM

    @property
    def state_dim(self) -> int:
        return self.global_dim + self.n_slots * self.slot_dim

    @property
    def action_dim(self) -> int:
        return self.n_slots + 1

    def clone(self) -> "StateEncoder":
        """A fresh encoder with the same configuration (and shared caches).

        The clone has independent episode state (arrival tracking, demand
        counters) but shares the immutable-valued bag-of-packages cache, so
        batched rollouts do not re-derive package vectors per clone.
        """
        clone = StateEncoder(n_slots=self.n_slots, catalog=self.catalog)
        clone._bag_cache = self._bag_cache
        return clone

    # -- lifecycle ------------------------------------------------------------
    def reset(self) -> None:
        """Forget the previous arrivals (call at episode start)."""
        self._last_arrival = None
        self._image_demand.clear()
        self._demand_total = 0.0

    def _demand_of(self, packages: object) -> float:
        """Recent-arrival share of an image configuration (0..1)."""
        if self._demand_total <= 0:
            return 0.0
        return self._image_demand.get(packages, 0.0) / self._demand_total

    def _observe_arrival(self, packages: object) -> None:
        decay = self.DEMAND_DECAY
        for key in list(self._image_demand):
            self._image_demand[key] *= decay
        self._demand_total *= decay
        self._image_demand[packages] = self._image_demand.get(packages, 0.0) + 1.0
        self._demand_total += 1.0

    # -- encoding ----------------------------------------------------------
    def encode(
        self,
        pool: PoolSet,
        invocation: Invocation,
        cost_model: StartupCostModel,
    ) -> EncodedState:
        """Encode one decision point; advances the arrival-interval tracker.

        ``pool`` is the live warm pool (a
        :class:`~repro.cluster.pool.PoolSet` or a single
        :class:`~repro.cluster.pool.WarmPool`); the decision time is
        ``invocation.arrival_time``.
        """
        now = invocation.arrival_time
        interval = (
            0.0 if self._last_arrival is None else now - self._last_arrival
        )
        self._last_arrival = now

        spec = invocation.spec
        self._observe_arrival(spec.image.packages)
        ranked = self._ranked_candidates(pool, spec.image)
        depth_counts = np.array(
            pool.match_depth_counts(spec.image), dtype=np.float64
        )
        # Suffix sums: redundancy_suffix[m] = idle containers matching at
        # least as deep as level m (precomputed once per decision point).
        redundancy_suffix = np.cumsum(depth_counts[::-1])[::-1]
        cold_latency = cost_model.latency_s(
            spec.image, _NO_MATCH, spec.function_init_s
        )
        global_part = self._global_features(
            pool, spec, interval, depth_counts, cold_latency
        )
        slot_parts = np.zeros((self.n_slots, self.slot_dim))
        mask = np.zeros(self.action_dim, dtype=bool)
        mask[-1] = True  # cold start is always allowed
        slot_containers: List[Optional[Container]] = [None] * self.n_slots
        slot_matches: List[MatchLevel] = [_NO_MATCH] * self.n_slots
        for slot, (container, match) in enumerate(ranked):
            # Idle containers matching at least as deep as this one, besides
            # itself: >0 means taking this container costs nothing.
            redundancy = float(redundancy_suffix[int(match)] - 1)
            if match is not _NO_MATCH:
                reuse_latency = cost_model.latency_s(
                    spec.image, match, spec.function_init_s
                )
                saving = cold_latency - reuse_latency
            else:
                reuse_latency = saving = 0.0
            slot_parts[slot] = self._slot_features(
                now, container, match, reuse_latency, saving, redundancy
            )
            slot_containers[slot] = container
            slot_matches[slot] = match
            if match is not _NO_MATCH:
                mask[slot] = True

        # Dominance rule on top of the paper's mask: when a full (L3) match
        # is visible, shallower reuses are filtered out -- the L3 reuse is
        # both the cheapest start and destroys no warm state.
        if _L3 in slot_matches:
            for slot, match in enumerate(slot_matches):
                if match is not _NO_MATCH and match is not _L3:
                    mask[slot] = False

        state = np.concatenate([global_part, slot_parts.reshape(-1)])
        return EncodedState(
            state=state,
            mask=mask,
            slot_containers=tuple(slot_containers),
            slot_matches=tuple(slot_matches),
        )

    # -- internals -----------------------------------------------------------
    def _bag_of_packages(self, packages: PackageSet) -> np.ndarray:
        bag = self._bag_cache.get(packages)
        if bag is None:
            bag = np.zeros(self._n_keys)
            for pkg in packages:
                idx = self._key_index.get(pkg.key)
                if idx is not None:
                    bag[idx] = 1.0
            self._bag_cache[packages] = bag
        # Callers only read the vector (np.concatenate copies), so the
        # cached array can be shared.
        return bag

    def _global_features(
        self,
        pool: PoolSet,
        spec: FunctionSpec,
        interval: float,
        depth_counts: np.ndarray,
        cold_latency: float,
    ) -> np.ndarray:
        capacity = pool.capacity_mb
        free_frac = (
            1.0
            if not np.isfinite(capacity)
            else max(0.0, (capacity - pool.used_mb)) / max(capacity, 1.0)
        )
        scalars = np.array(
            [
                spec.function_init_s * _INIT_SCALE,
                spec.image.total_size_mb * _MEMORY_SCALE,
                spec.image.memory_mb * _MEMORY_SCALE,
                np.log1p(interval),
                free_frac,
                len(pool) / self.n_slots,
                cold_latency * _LATENCY_SCALE,
                self._demand_of(spec.image.packages),
            ]
        )
        return np.concatenate([
            self._bag_of_packages(spec.image.packages),
            scalars,
            depth_counts / self.n_slots,
        ])

    def _ranked_candidates(
        self, pool: PoolSet, image: FunctionImage
    ) -> List[Tuple[Container, MatchLevel]]:
        """Top ``n_slots`` idle containers, deepest match first, then most
        recently used (greatest ``(last_used_at, container_id)``).

        Read level by level off the pool's match index: the containers at
        exactly one level are that level's bucket minus the next deeper
        one (the buckets nest, and ``NO_MATCH``'s is the whole pool), and
        only the remaining slots' worth of each level is selected.
        """
        ranked: List[Tuple[Container, MatchLevel]] = []
        deeper: Set[int] = set()
        for level in _RANK_LEVELS:
            room = self.n_slots - len(ranked)
            if room == 0:
                break
            bucket = pool.match_candidates(image, level)
            exact = [c for c in bucket if c.container_id not in deeper]
            top = heapq.nlargest(room, exact, key=_mru_key)
            ranked.extend((container, level) for container in top)
            deeper = {c.container_id for c in bucket}
        return ranked

    def _slot_features(
        self,
        now: float,
        container: Container,
        match: MatchLevel,
        reuse_latency: float,
        saving: float,
        redundancy: float,
    ) -> np.ndarray:
        one_hot = np.zeros(4)
        one_hot[int(match)] = 1.0
        runtime_payload = container.image.packages.level_size_mb(
            PackageLevel.RUNTIME
        )
        return np.concatenate(
            [
                [1.0],  # slot occupied
                one_hot,
                [
                    reuse_latency * _LATENCY_SCALE,
                    saving * _LATENCY_SCALE,
                    np.log1p(container.idle_duration(now)),
                    container.image.memory_mb * _MEMORY_SCALE,
                    # What a repack would throw away: the container's current
                    # runtime payload (the Fig. 2 "keep the good container
                    # for later" signal).
                    runtime_payload * _MEMORY_SCALE,
                    min(redundancy, 4.0) / 4.0,
                    # How hot the container's *current* stack is in the
                    # recent arrival stream: repacking a high-demand
                    # container forfeits likely L3 hits.
                    self._demand_of(container.image.packages),
                ],
            ]
        )
