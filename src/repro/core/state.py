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
filtered out rather than explored).

Encoding is incremental: bag-of-packages vectors and cost-model latencies
are cached per image configuration, per-depth idle counts come from the
warm pool's match index (``ctx.match_counts``), the redundancy feature uses
precomputed suffix sums, and candidate ranking is a partial selection of
the top ``n_slots`` instead of a full sort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.containers.container import Container
from repro.containers.matching import MatchLevel, match_level
from repro.packages.catalog import PackageCatalog, default_catalog
from repro.packages.package import PackageLevel
from repro.schedulers.base import Decision, SchedulingContext

# Feature-scaling constants: chosen so typical values land in ~[0, 3].
_LATENCY_SCALE = 0.1     # seconds -> tenths of ten-seconds
_MEMORY_SCALE = 1e-3     # MB -> GB
_INIT_SCALE = 0.5


@dataclass(frozen=True)
class EncodedState:
    """The encoder's output for one decision point."""

    state: np.ndarray                 # flat (global_dim + n_slots * slot_dim,)
    mask: np.ndarray                  # (n_slots + 1,) bool; last = cold start
    slot_containers: Tuple[Optional[int], ...]  # slot index -> container id
    slot_matches: Tuple[MatchLevel, ...]        # slot index -> match level

    def decision_for(self, action: int) -> Decision:
        """Translate a (possibly invalid) action index into a Decision.

        Following the paper ("if i is larger than the actual number of warm
        containers ... it also means cold start"), actions pointing at an
        empty slot or at a no-match container fall back to a cold start --
        this is what makes running without the action mask well-defined.
        """
        if action < 0 or action > len(self.slot_containers):
            raise ValueError(f"action {action} out of range")
        if action == len(self.slot_containers):
            return Decision.cold()
        container_id = self.slot_containers[action]
        if container_id is None or not self.slot_matches[action].is_reusable:
            return Decision.cold()
        return Decision.warm(container_id)


class StateEncoder:
    """Encode :class:`SchedulingContext` objects into fixed-size vectors."""

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
        mask_dominated: bool = True,
        load_features: bool = False,
    ) -> None:
        """``mask_dominated`` extends the paper's action mask with a
        dominance rule: when a full (L3) match is available, shallower
        reuses are filtered out as manifestly erroneous -- the L3 reuse is
        both the cheapest start *and* destroys no warm state, because the
        container already holds exactly the function's stack.

        ``load_features`` appends six aggregate cluster-load scalars
        (worker container loads and startup queue depths from
        ``ctx.worker_loads`` / ``ctx.queue_depths``) to the global
        segment.  Aggregates, not per-worker values, so the state
        dimension is independent of ``n_workers`` and one trained policy
        transfers across cluster sizes.  Off by default: the historical
        encoding is bit-for-bit unchanged."""
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self.mask_dominated = mask_dominated
        self.load_features = load_features
        self.catalog = catalog or default_catalog()
        self._key_index: Dict[str, int] = {
            key: i for i, key in enumerate(self.catalog.key_order())
        }
        self._n_keys = len(self._key_index)
        self._last_arrival: Optional[float] = None
        self._image_demand: Dict[object, float] = {}
        self._demand_total = 0.0
        # Image-keyed caches.  Both survive reset(): they depend only on
        # the (immutable) image configurations and the cost model, not on
        # episode state; the latency cache is invalidated when a context
        # carries a different cost-model instance.
        self._bag_cache: Dict[object, np.ndarray] = {}
        self._latency_cache: Dict[Tuple, float] = {}
        self._latency_model: Optional[object] = None

    # -- dimensions --------------------------------------------------------
    @property
    def global_dim(self) -> int:
        # bag-of-packages + 8 scalars + per-match-level idle counts (4),
        # plus 6 aggregate cluster-load scalars when enabled.
        return self._n_keys + 8 + 4 + (6 if self.load_features else 0)

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
        clone = StateEncoder(
            n_slots=self.n_slots,
            catalog=self.catalog,
            mask_dominated=self.mask_dominated,
            load_features=self.load_features,
        )
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
    def encode(self, ctx: SchedulingContext) -> EncodedState:
        """Encode one decision point; advances the arrival-interval tracker."""
        interval = (
            0.0 if self._last_arrival is None else ctx.now - self._last_arrival
        )
        self._last_arrival = ctx.now

        self._observe_arrival(ctx.invocation.spec.image.packages)
        ranked = self._ranked_candidates(ctx)
        # Per-depth idle counts come from the pool match index when the
        # context carries one (ctx.match_counts) instead of re-scoring
        # every idle container.
        counts = ctx.match_counts()
        depth_counts = np.array(
            [float(counts[lvl]) for lvl in MatchLevel], dtype=np.float64
        )
        # Suffix sums: redundancy_suffix[m] = idle containers matching at
        # least as deep as level m (precomputed once per decision point).
        redundancy_suffix = np.cumsum(depth_counts[::-1])[::-1]
        global_part = self._global_features(ctx, interval, depth_counts)
        slot_parts = np.zeros((self.n_slots, self.slot_dim))
        mask = np.zeros(self.action_dim, dtype=bool)
        mask[-1] = True  # cold start is always allowed
        slot_ids: List[Optional[int]] = [None] * self.n_slots
        slot_matches: List[MatchLevel] = [MatchLevel.NO_MATCH] * self.n_slots
        cold_latency = self._cached_latency(ctx, MatchLevel.NO_MATCH)
        for slot, (container, match) in enumerate(ranked):
            # Idle containers matching at least as deep as this one, besides
            # itself: >0 means taking this container costs nothing.
            redundancy = float(redundancy_suffix[int(match)] - 1)
            slot_parts[slot] = self._slot_features(
                ctx, container, match, cold_latency, redundancy
            )
            slot_ids[slot] = container.container_id
            slot_matches[slot] = match
            if match.is_reusable:
                mask[slot] = True

        if self.mask_dominated and MatchLevel.L3 in slot_matches:
            for slot, match in enumerate(slot_matches):
                if match.is_reusable and match is not MatchLevel.L3:
                    mask[slot] = False

        state = np.concatenate([global_part, slot_parts.reshape(-1)])
        return EncodedState(
            state=state,
            mask=mask,
            slot_containers=tuple(slot_ids),
            slot_matches=tuple(slot_matches),
        )

    # -- internals -----------------------------------------------------------
    def _bag_of_packages(self, ctx: SchedulingContext) -> np.ndarray:
        packages = ctx.invocation.spec.image.packages
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

    def _cached_latency(
        self,
        ctx: SchedulingContext,
        match: MatchLevel,
        function_init_s: Optional[float] = None,
    ) -> float:
        """Cost-model latency cached per ``(image, match, function_init_s)``."""
        if ctx.cost_model is not self._latency_model:
            self._latency_model = ctx.cost_model
            self._latency_cache.clear()
        spec = ctx.invocation.spec
        init_s = spec.function_init_s if function_init_s is None else function_init_s
        key = (spec.image.fingerprints, int(match), init_s)
        latency = self._latency_cache.get(key)
        if latency is None:
            latency = ctx.cost_model.latency_s(spec.image, match, init_s)
            self._latency_cache[key] = latency
        return latency

    def _global_features(
        self, ctx: SchedulingContext, interval: float, depth_counts: np.ndarray
    ) -> np.ndarray:
        spec = ctx.invocation.spec
        capacity = ctx.pool_capacity_mb
        free_frac = (
            1.0
            if not np.isfinite(capacity)
            else max(0.0, (capacity - ctx.pool_used_mb)) / max(capacity, 1.0)
        )
        scalars = np.array(
            [
                spec.function_init_s * _INIT_SCALE,
                spec.image.total_size_mb * _MEMORY_SCALE,
                spec.image.memory_mb * _MEMORY_SCALE,
                np.log1p(interval),
                free_frac,
                len(ctx.idle_containers) / self.n_slots,
                self._cached_latency(ctx, MatchLevel.NO_MATCH) * _LATENCY_SCALE,
                self._demand_of(spec.image.packages),
            ]
        )
        parts = [self._bag_of_packages(ctx), scalars,
                 depth_counts / self.n_slots]
        if self.load_features:
            parts.append(self._load_features(ctx))
        return np.concatenate(parts)

    def _load_features(self, ctx: SchedulingContext) -> np.ndarray:
        """Aggregate cluster-load scalars (independent of ``n_workers``).

        Log-compressed means/maxima of per-worker container loads and
        startup queue depths, plus the fraction of workers hosting at
        least one container and the total queued-startup count.  Empty
        load views (hand-built contexts) encode as all zeros.
        """
        loads = np.asarray(ctx.worker_loads, dtype=np.float64)
        queues = np.asarray(ctx.queue_depths, dtype=np.float64)
        return np.array(
            [
                np.log1p(loads.mean()) if loads.size else 0.0,
                np.log1p(loads.max()) if loads.size else 0.0,
                float((loads > 0).mean()) if loads.size else 0.0,
                np.log1p(queues.mean()) if queues.size else 0.0,
                np.log1p(queues.max()) if queues.size else 0.0,
                np.log1p(queues.sum()) if queues.size else 0.0,
            ]
        )

    def _ranked_candidates(
        self, ctx: SchedulingContext
    ) -> List[Tuple[Container, MatchLevel]]:
        """Top ``n_slots`` idle containers, deepest-match first, then most
        recent.

        Partial selection (``heapq.nsmallest``) instead of a full sort:
        only the ``n_slots`` visible candidates are ordered, O(n log k)
        over the pool instead of O(n log n).
        """
        image = ctx.invocation.spec.image
        # idle_containers is LRU-first; enumerate() index preserves recency.
        # The 4-tuples order by (depth, recency) alone -- the recency index
        # is unique, so the trailing elements are never compared.
        scored = [
            (-int(match_level(image, container.image)), -recency,
             container.container_id, container)
            for recency, container in enumerate(ctx.idle_containers)
        ]
        top = heapq.nsmallest(self.n_slots, scored)
        return [
            (container, MatchLevel(-neg_match))
            for neg_match, _, _, container in top
        ]

    def _slot_features(
        self,
        ctx: SchedulingContext,
        container: Container,
        match: MatchLevel,
        cold_latency: float,
        redundancy: float,
    ) -> np.ndarray:
        one_hot = np.zeros(4)
        one_hot[int(match)] = 1.0
        if match.is_reusable:
            reuse_latency = self._cached_latency(ctx, match)
            saving = cold_latency - reuse_latency
        else:
            reuse_latency = 0.0
            saving = 0.0
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
                    np.log1p(container.idle_duration(ctx.now)),
                    container.memory_mb * _MEMORY_SCALE,
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
