"""Data-plane container lifecycle: create, claim, repack, keep-alive, destroy.

Two layers own every container-state mutation in the cluster:

* :class:`PoolLifecycle` -- the pool-side bookkeeping both engines run:
  container ids and live-memory accounting, claiming (pre-warm and lend
  reuse), the image-swap repack, keep-alive through the eviction policy
  (reject, or evict the victims, then add), TTL expiry, destroy (pre-warm
  waste, dropping the lend entry), pre-warming and lending.  Its scalar
  counters go to one :class:`~repro.cluster.telemetry.Counters` record.
  Each lane of the lane kernel (:mod:`repro.cluster.lanes`) is one,
  running on a single :class:`~repro.cluster.pool.WarmPool`.
* :class:`ContainerLifecycle` -- the sequential engine's extension:
  worker placement, the cleaner's volume-level repack, the live-container
  set and created/destroyed counts behind the conservation invariant,
  checked state transitions, monitor notifications, warm-memory peak
  sampling, per-worker shard routing (:meth:`~ContainerLifecycle.\
worker_of`) and the crash / straggler hooks of the configured
  :class:`~repro.cluster.faults.FaultModel`.

The policy driver (:class:`~repro.cluster.simulator.ClusterSimulator`)
composes :class:`ContainerLifecycle` with the
:class:`~repro.cluster.eventloop.EventLoop` and the
:class:`~repro.cluster.placement.PlacementEngine`; nothing here touches the
clock or the event queue.  The lifecycle is *time-source-agnostic*: every
time-dependent operation takes ``now`` as a plain float argument, so the
same code serves the offline simulator (driven by a
:class:`~repro.cluster.eventloop.VirtualClock`) and the online serving
plane (driven by wall-clock timestamps) without change.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cluster.eviction import EvictionPolicy
from repro.cluster.faults import FaultConfig, FaultModel
from repro.cluster.placement import PlacementEngine
from repro.cluster.pool import PoolSet, WarmPool
from repro.cluster.telemetry import Counters, Telemetry
from repro.containers.cleaner import CleanResult, ContainerCleaner
from repro.containers.container import Container, ContainerState
from repro.containers.costmodel import StartupBreakdown
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.containers.volumes import VolumeStore
from repro.schedulers.base import PrewarmRequest
from repro.workloads.functions import FunctionSpec


class InvalidDecisionError(RuntimeError):
    """A scheduler returned an unusable decision (bad id, busy, no-match)."""


class PoolLifecycle:
    """Pool-side container bookkeeping, shared by both engines.

    ``pool`` holds the idle warm containers, ``eviction`` admits finished
    ones to it and ``counters`` receives the scalar counters.  Containers
    are plain state records at this layer: no checked transitions,
    placement or volumes.  Every method works on a single
    :class:`~repro.cluster.pool.WarmPool`; :class:`ContainerLifecycle`
    routes a :class:`~repro.cluster.pool.PoolSet`'s shards itself.
    """

    __slots__ = (
        "pool", "eviction", "counters", "live_memory_mb", "_ids",
        "_prewarmed", "_lent",
    )

    def __init__(
        self,
        pool: Union[WarmPool, PoolSet],
        eviction: EvictionPolicy,
        counters: Counters,
    ) -> None:
        self.pool = pool
        self.eviction = eviction
        self.counters = counters
        self._ids = itertools.count(1)
        self.live_memory_mb = 0.0
        # Proactive-action bookkeeping: pre-warmed container ids awaiting
        # their first claim (claimed -> reuse, destroyed -> waste) and lent
        # container ids mapped to the function they were re-specialized for.
        self._prewarmed: Set[int] = set()
        self._lent: Dict[int, str] = {}

    # -- creation -----------------------------------------------------------
    def create(
        self,
        image: FunctionImage,
        function_name: str,
        now: float,
        idle: bool = False,
    ) -> Container:
        """Create a container and count its memory as live.

        ``idle=True`` builds a pre-warmed container (already IDLE, owner
        recorded) for :meth:`prewarm`; the default is a cold-start
        container in its STARTING state.
        """
        container = Container(
            container_id=next(self._ids),
            image=image,
            created_at=now,
            last_used_at=now if idle else 0.0,
        )
        if idle:
            container.state = ContainerState.IDLE
            container.current_function = function_name
        self.live_memory_mb += image.memory_mb
        return container

    # -- claiming / repacking ------------------------------------------------
    def check_decision(
        self, container_id: Optional[int], spec: FunctionSpec
    ) -> Tuple[Container, MatchLevel]:
        """Validate a warm decision for an arrival of ``spec``.

        The id must name a pooled (idle) container that matches ``spec``
        at some Table-I level.  Returns the container and its match level;
        raises :class:`InvalidDecisionError`, mutating nothing, otherwise.
        """
        container = self.pool.get(container_id)
        if container is None:
            raise InvalidDecisionError(
                f"container {container_id} is not an idle pooled container"
            )
        match = match_level(spec.image, container.image)
        if match is MatchLevel.NO_MATCH:
            raise InvalidDecisionError(
                f"container {container_id} does not match invocation "
                f"{spec.name} at any level"
            )
        return container, match

    def claim(
        self, container_id: int, spec: FunctionSpec, now: float
    ) -> Container:
        """Pull a pooled container out for reuse by ``spec``, counting a
        pre-warm or lend hit.  The decision must be valid already."""
        container = self.pool.remove(container_id)
        prewarmed = self._prewarmed
        if prewarmed and container_id in prewarmed:
            prewarmed.discard(container_id)
            self.counters.prewarm_reuses += 1
        if self._lent and self._lent.pop(container_id, None) == spec.name:
            self.counters.lend_reuses += 1
        return container

    def repack(
        self,
        container: Container,
        target_image: FunctionImage,
        function_name: str,
    ) -> None:
        """Swap a container's image, keeping live memory in sync."""
        old_mb = container.image.memory_mb
        container.image = target_image
        self.live_memory_mb += target_image.memory_mb - old_mb

    # -- keep-alive / destruction --------------------------------------------
    def keep_alive(self, container: Container, now: float) -> None:
        """Put a finished container back into the pool, if admitted."""
        if self.make_room(self.pool, container, now) is not None:
            self.pool.add(container)

    def make_room(
        self, shard: WarmPool, container: Container, now: float
    ) -> Optional[List[Container]]:
        """Run the eviction policy for pooling ``container`` on ``shard``.

        A rejected container is destroyed and None returned.  Otherwise
        the victims are taken out of the pool, destroyed and returned; the
        caller then adds ``container``.
        """
        victims = self.eviction.select_victims(shard, container, now)
        if victims is None:
            self.counters.keep_alive_rejections += 1
            self.destroy(container)
            return None
        if victims:
            self.counters.evictions += len(victims)
            remove = self.pool.remove
            for victim in victims:
                remove(victim.container_id)
                self.destroy(victim)
        return victims

    def expire_ttl(self, now: float) -> Sequence[Container]:
        """Destroy pooled containers idle past the eviction policy's TTL;
        returns them."""
        ttl = self.eviction.ttl_s
        if ttl is None:
            return ()
        # LRU insertion order implies idle-time order under a fixed TTL, so
        # expiry pops only the actually-expired heads (O(expired + shards)
        # per event instead of an O(pool) scan).
        expired = self.pool.expire_older_than(now - ttl)
        if expired:
            self.counters.ttl_expirations += len(expired)
            for container in expired:
                self.destroy(container)
            self._expired(now, ttl, expired)
        return expired

    def destroy(self, container: Container) -> None:
        """Release a container's live memory and drop its pre-warm / lend
        entries (an unclaimed pre-warm counts as waste)."""
        self.live_memory_mb = max(
            0.0, self.live_memory_mb - container.image.memory_mb
        )
        cid = container.container_id
        prewarmed = self._prewarmed
        if prewarmed and cid in prewarmed:
            prewarmed.discard(cid)
            self.counters.prewarm_wasted += 1
        if self._lent:
            self._lent.pop(cid, None)

    # -- proactive actions (pre-warm / lending) ------------------------------
    def apply_actions(self, actions: Sequence, now: float) -> None:
        """Run a decision's proactive actions, in order."""
        for action in actions:
            if isinstance(action, PrewarmRequest):
                self.prewarm(action.image, action.function_name, now)
            else:
                self.lend(action.container_id, action.image,
                          action.function_name, now)

    def prewarm(
        self, image: FunctionImage, function_name: str, now: float
    ) -> Container:
        """Create an idle container ahead of any arrival and pool it.

        Nothing is invoked yet, so no startup latency is accounted.  The
        container enters the warm pool through the eviction policy like
        any finishing container, so a full pool can reject (and
        immediately waste) the pre-warm.  Claims and destroys of
        pre-warmed containers feed the reuse/waste counters.
        """
        container = self.create(image, function_name, now, idle=True)
        self.counters.prewarms_issued += 1
        self._prewarmed.add(container.container_id)
        self._proactive(now, "prewarm", container)
        self.keep_alive(container, now)
        return container

    def lend(
        self,
        container_id: int,
        target_image: FunctionImage,
        function_name: str,
        now: float,
    ) -> bool:
        """Re-specialize an idle pooled container toward another function.

        Pagurus-style helping: the donor stays IDLE and stays pooled, but
        its image is repacked toward ``target_image`` (sharing every
        Table-I-compatible layer), so the target function's next arrival
        finds an exact match.  Returns False (nothing changed) when the
        donor is gone, incompatible, or the repack would not fit its pool
        shard; the idle clock resets on success so LRU insertion order
        keeps implying idle-time order.
        """
        container = self.pool.get(container_id)
        if container is None:
            return False
        if match_level(target_image, container.image) is MatchLevel.NO_MATCH:
            return False
        shard = self.home_shard(container_id)
        headroom = shard.capacity_mb - shard.used_mb + container.memory_mb
        if target_image.memory_mb > headroom:
            return False
        # The donor stays on its shard; re-adding re-keys its match index.
        shard.remove(container_id)
        self.repack(container, target_image, function_name)
        container.current_function = function_name
        container.last_used_at = now
        shard.add(container)
        self.counters.lends_issued += 1
        self._lent[container_id] = function_name
        self._proactive(now, "lend", container)
        return True

    def home_shard(self, container_id: int) -> WarmPool:
        """The warm pool ``container_id`` is kept on: the whole pool."""
        return self.pool

    def _expired(
        self, now: float, ttl: float, expired: List[Container]
    ) -> None:
        """Hook run after a TTL sweep destroyed ``expired``; a no-op
        here."""

    def _proactive(self, now: float, kind: str, container: Container) -> None:
        """Account a pre-warm or lend: update the live-memory peak."""
        counters = self.counters
        if self.live_memory_mb > counters.peak_live_memory_mb:
            counters.peak_live_memory_mb = self.live_memory_mb


class ContainerLifecycle(PoolLifecycle):
    """The sequential engine's container lifecycle.

    Extends :class:`PoolLifecycle` with worker placement, cleaner volumes,
    the live-container set, checked state transitions, monitor
    notifications, warm-memory peak sampling and per-worker shard
    routing.  ``telemetry`` is the counters record.
    """

    def __init__(
        self,
        pool: PoolSet,
        eviction: EvictionPolicy,
        telemetry: Telemetry,
        placement: PlacementEngine,
        faults: FaultConfig,
        per_worker_pools: bool = False,
        monitor=None,
    ) -> None:
        super().__init__(pool, eviction, telemetry)
        self.telemetry = telemetry
        self.placement = placement
        self.per_worker_pools = per_worker_pools
        self.volume_store = VolumeStore()
        self.cleaner = ContainerCleaner(self.volume_store)
        self.faults = FaultModel(faults)
        #: Whether any fault has a non-zero probability (``faults`` is frozen).
        self.faults_enabled = faults.enabled
        self._live: Dict[int, Container] = {}
        # Lifetime counters backing the conservation invariant
        # (created == pooled + running + destroyed); two int increments per
        # container, cheap enough to maintain unconditionally.
        self.created_count = 0
        self.destroyed_count = 0
        # Optional repro.verify.VerificationHarness receiving create /
        # destroy / TTL-expiry notifications; None (the default) costs one
        # is-None test on those paths.
        self._monitor = monitor

    # -- routing --------------------------------------------------------------
    def worker_of(self, container_id: int) -> int:
        """Index of the pool shard ``container_id`` is kept on: its
        worker's shard with per-worker pools, else the single shard 0."""
        if self.per_worker_pools:
            return self.placement.worker_of(container_id)
        return 0

    def home_shard(self, container_id: int) -> WarmPool:
        """The pool shard ``container_id`` is kept on."""
        return self.pool.shard(self.worker_of(container_id))

    # -- creation -----------------------------------------------------------
    def create(
        self,
        image: FunctionImage,
        function_name: str,
        now: float,
        idle: bool = False,
    ) -> Container:
        """Create a container, place it on a worker and mount its volumes."""
        container = super().create(image, function_name, now, idle)
        self._live[container.container_id] = container
        self.created_count += 1
        self.placement.place(container.container_id, container.memory_mb, now)
        self.cleaner.initial_mount(container, function_name)
        if self._monitor is not None:
            self._monitor.notify("create", container=container)
        return container

    def live_containers(self) -> Dict[int, Container]:
        """Snapshot view of every live (non-destroyed) container by id."""
        return dict(self._live)

    # -- claiming / repacking ------------------------------------------------
    def claim(
        self, container_id: Optional[int], spec: FunctionSpec, now: float
    ) -> Container:
        """Validate a warm decision and pull the container from the pool.

        Validation (:meth:`check_decision`) happens *before* any mutation,
        so an :class:`InvalidDecisionError` leaves the cluster untouched --
        callers rely on this to keep the pending invocation alive across a
        rejected decision.
        """
        self.check_decision(container_id, spec)
        container = super().claim(container_id, spec, now)
        container.claim()
        return container

    def repack(
        self,
        container: Container,
        target_image: FunctionImage,
        function_name: str,
    ) -> CleanResult:
        """Repack a claimed container through the cleaner (volume by
        volume), keeping live memory in sync."""
        old_memory = container.memory_mb
        result = self.cleaner.repack(container, target_image, function_name)
        self.live_memory_mb += container.memory_mb - old_memory
        return result

    # -- keep-alive / destruction --------------------------------------------
    def keep_alive(self, container: Container, now: float) -> None:
        """Try to put a finished container back into its worker's pool."""
        index = self.worker_of(container.container_id)
        if self.make_room(self.pool.shard(index), container, now) is None:
            return
        self.pool.add(container, index)
        self.telemetry.sample_memory(now, self.pool.used_mb)

    def _expired(
        self, now: float, ttl: float, expired: List[Container]
    ) -> None:
        """Notify the monitors of a TTL sweep."""
        if self._monitor is not None:
            self._monitor.notify(
                "ttl_expired", now=now, ttl=ttl, containers=expired
            )

    def destroy(self, container: Container) -> None:
        """Tear a container down and release its worker placement."""
        if container.state is not ContainerState.EVICTED:
            container.evict()
        if self._live.pop(container.container_id, None) is not None:
            self.destroyed_count += 1
            super().destroy(container)
            if self._monitor is not None:
                self._monitor.notify("destroy", container=container)
        self.placement.release(container.container_id, container.memory_mb)

    def _proactive(self, now: float, kind: str, container: Container) -> None:
        """Sample the memory a pre-warm or lend moved."""
        telemetry = self.telemetry
        if kind == "lend":
            telemetry.sample_memory(now, self.pool.used_mb)
        telemetry.sample_live_memory(self.live_memory_mb)

    # -- fault hooks ---------------------------------------------------------
    def should_crash(self) -> bool:
        """Sample whether a finishing container dies instead of pooling."""
        return self.faults.should_crash()

    def perturb_breakdown(self, breakdown: StartupBreakdown) -> tuple:
        """Possibly perturb a startup breakdown; returns (breakdown, straggled)."""
        return self.faults.perturb_breakdown(breakdown)
