"""Data-plane container lifecycle: start, complete, keep-alive, destroy.

Two layers own every container-state mutation in the cluster:

* :class:`PoolLifecycle` -- one invocation's lifecycle and the pool-side
  bookkeeping, run by both engines.  :meth:`~PoolLifecycle.start` begins
  an invocation (create, or validate, claim and repack a warm pick, then
  the checked STARTING transition); the engine queues its completion on
  the lifecycle's :class:`~repro.cluster.eventloop.EventLoop` and passes
  :meth:`~PoolLifecycle.expire_ttl` as the loop's sweep (the loop keeps
  no reference back, so a lifecycle is freed by reference counting alone);
  :meth:`~PoolLifecycle.complete` ends it (IDLE, then
  keep-alive through the eviction policy: reject, or evict the victims,
  then add).  Around these sit container ids and live-memory accounting,
  pre-warm and lend reuse, destroy (pre-warm waste, dropping the lend
  entry), pre-warming and lending.  Its scalar counters go to one
  :class:`~repro.cluster.telemetry.Counters` record.  Each lane of the
  lane kernel (:mod:`repro.cluster.lanes`) is one, running on a single
  :class:`~repro.cluster.pool.WarmPool`.
* :class:`ContainerLifecycle` -- the sequential engine's extension:
  worker placement, the cleaner's volume-level repack, the live-container
  set and created/destroyed counts behind the conservation invariant,
  monitor notifications and checkpoints, warm-memory peak sampling,
  per-worker shard routing (:meth:`~ContainerLifecycle.worker_of`) and
  the crash / straggler hooks of the configured
  :class:`~repro.cluster.faults.FaultModel`.

The policy driver (:class:`~repro.cluster.simulator.ClusterSimulator`)
composes :class:`ContainerLifecycle` with the
:class:`~repro.cluster.placement.PlacementEngine` and prices each start.
Every time-dependent operation takes ``now`` as a plain float argument,
so the same code serves the offline simulator and the online serving
plane (driven by wall-clock timestamps) without change.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cluster.eventloop import EventLoop
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


# Aliases: an enum member read off its class costs a descriptor call.
_NO_MATCH = MatchLevel.NO_MATCH
_STARTING, _IDLE, _EVICTED = (
    ContainerState.STARTING, ContainerState.IDLE, ContainerState.EVICTED)


class InvalidDecisionError(RuntimeError):
    """A scheduler returned an unusable decision (bad id, busy, no-match)."""


class PoolLifecycle:
    """One invocation's lifecycle plus the pool-side container
    bookkeeping, shared by both engines.

    ``pool`` holds the idle warm containers, ``eviction`` admits finished
    ones to it and ``counters`` receives the scalar counters.  ``loop`` is
    the completion queue of the invocations this lifecycle started;
    ``observer`` watches it, and the engines pass :meth:`expire_ttl` as
    the sweep of each clock advance.  Placement
    and volumes are not modelled at this layer.  Every method works on a
    single :class:`~repro.cluster.pool.WarmPool`;
    :class:`ContainerLifecycle` routes a
    :class:`~repro.cluster.pool.PoolSet`'s shards itself.
    """

    __slots__ = (
        "pool", "eviction", "counters", "loop", "live_memory_mb", "_ids",
        "_prewarmed", "_lent",
    )

    def __init__(
        self,
        pool: Union[WarmPool, PoolSet],
        eviction: EvictionPolicy,
        counters: Counters,
        observer=None,
    ) -> None:
        self.pool = pool
        self.eviction = eviction
        self.counters = counters
        self.loop = EventLoop(observer=observer)
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
        """Create a container for ``function_name`` and count its memory
        as live.

        The default is a cold-start container, STARTING since ``now``;
        ``idle=True`` builds a pre-warmed one (IDLE since ``now``) for
        :meth:`prewarm`.
        """
        container = Container(
            container_id=next(self._ids),
            image=image,
            state=_IDLE if idle else _STARTING,
            created_at=now,
            last_used_at=now,
            current_function=function_name,
        )
        self.live_memory_mb += image.memory_mb
        return container

    # -- one invocation: start and complete -----------------------------------
    def start(
        self,
        spec: FunctionSpec,
        picked: Optional[Container],
        preserve: bool,
        now: float,
    ) -> Tuple[Container, MatchLevel, FunctionImage]:
        """Begin serving an arrival of ``spec`` at ``now``.

        ``picked`` is the decision's warm container, or None to
        cold-create one.  A warm pick is validated first
        (:meth:`check_decision`; an :class:`InvalidDecisionError` leaves
        everything untouched), then claimed and repacked toward
        ``spec``'s image -- or onto its own image under ``preserve``
        (zygote-style reuse keeps the superset image) -- and stamped as
        serving ``spec`` since ``now``, as a new container is born.  Then
        the live-memory peak is sampled.
        Returns the container, its match level (``NO_MATCH`` when cold)
        and the image it held before the repack.
        """
        if picked is None:
            container = self.create(spec.image, spec.name, now)
            match = _NO_MATCH
            old_image = spec.image
        else:
            container, match = self.check_decision(picked.container_id, spec)
            old_image = container.image
            self.claim(container.container_id, spec, now)
            self.repack(
                container, old_image if preserve else spec.image, spec.name
            )
            container.begin_startup(spec.name, now)
        counters = self.counters
        if self.live_memory_mb > counters.peak_live_memory_mb:
            counters.peak_live_memory_mb = self.live_memory_mb
        return container, match, old_image

    def complete(self, container: Container, now: float) -> None:
        """An invocation finished at ``now``: its container goes IDLE and
        back to the pool through keep-alive.  The completion handler both
        engines pass to ``loop.drain_until``."""
        container.finish_execution(now)
        self.keep_alive(container, now)

    def drain_all(self) -> None:
        """Complete every invocation still in flight (the end of a run)."""
        self.loop.drain_until(math.inf, self.complete, self.expire_ttl)

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
        if match is _NO_MATCH:
            raise InvalidDecisionError(
                f"container {container_id} does not match invocation "
                f"{spec.name} at any level"
            )
        return container, match

    def claim(
        self, container_id: int, spec: FunctionSpec, now: float
    ) -> Container:
        """Pull a pooled container out for reuse by ``spec`` (IDLE to
        STARTING), counting a pre-warm or lend hit.  The decision must be
        valid already."""
        container = self.pool.remove(container_id)
        container.claim()
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
        if match_level(target_image, container.image) is _NO_MATCH:
            return False
        shard = self.home_shard(container_id)
        headroom = (shard.capacity_mb - shard.used_mb
                    + container.image.memory_mb)
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
    the live-container set, monitor notifications and checkpoints,
    warm-memory peak sampling, per-worker shard routing and injected
    crashes.  ``telemetry`` is the counters record.
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
        super().__init__(
            pool, eviction, telemetry,
            observer=monitor.observe_loop if monitor is not None else None,
        )
        self.telemetry = telemetry
        self.placement = placement
        self.per_worker_pools = per_worker_pools
        # Without per-worker pools every container lives on the one shard,
        # so keep-alive goes straight to it.
        self._shard = None if per_worker_pools else pool.shard(0)
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
        self.placement.place(container.container_id, image.memory_mb, now)
        self.cleaner.initial_mount(container, function_name)
        if self._monitor is not None:
            self._monitor.notify("create", container=container)
        return container

    def live_containers(self) -> Dict[int, Container]:
        """Snapshot view of every live (non-destroyed) container by id."""
        return dict(self._live)

    def complete(self, container: Container, now: float) -> None:
        """Complete an invocation; an injected crash destroys the finished
        container instead of pooling it.  Monitors check every
        completion."""
        container.finish_execution(now)
        if self.faults_enabled and self.faults.should_crash():
            self.destroy(container)
            self.telemetry.record_crash()
        else:
            self.keep_alive(container, now)
        if self._monitor is not None:
            self._monitor.checkpoint()

    # -- repacking -------------------------------------------------------------
    def repack(
        self,
        container: Container,
        target_image: FunctionImage,
        function_name: str,
    ) -> CleanResult:
        """Repack a claimed container through the cleaner (volume by
        volume), keeping live memory in sync."""
        old_mb = container.image.memory_mb
        result = self.cleaner.repack(container, target_image, function_name)
        self.live_memory_mb += target_image.memory_mb - old_mb
        return result

    # -- keep-alive / destruction --------------------------------------------
    def keep_alive(self, container: Container, now: float) -> None:
        """Try to put a finished container back into its worker's pool,
        then update the warm-memory peak."""
        shard = self._shard
        if shard is None:
            index = self.placement.worker_of(container.container_id)
            if self.make_room(self.pool.shard(index), container, now) is None:
                return
            self.pool.add(container, index)
            self.telemetry.sample_memory(now, self.pool.used_mb)
        elif self.make_room(shard, container, now) is not None:
            shard.add(container)
            # One shard: the pool's peak is the shard's own running peak.
            telemetry = self.telemetry
            if shard.peak_used_mb > telemetry.peak_warm_memory_mb:
                telemetry.peak_warm_memory_mb = shard.peak_used_mb

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
        if container.state is not _EVICTED:
            container.evict()
        if self._live.pop(container.container_id, None) is not None:
            self.destroyed_count += 1
            super().destroy(container)
            if self._monitor is not None:
                self._monitor.notify("destroy", container=container)
        self.placement.release(container.container_id,
                               container.image.memory_mb)

    def _proactive(self, now: float, kind: str, container: Container) -> None:
        """Sample the memory a pre-warm or lend moved."""
        telemetry = self.telemetry
        if kind == "lend":
            telemetry.sample_memory(now, self.pool.used_mb)
        telemetry.sample_live_memory(self.live_memory_mb)

    # -- fault hooks ---------------------------------------------------------
    def perturb_breakdown(self, breakdown: StartupBreakdown) -> tuple:
        """Possibly perturb a startup breakdown; returns (breakdown, straggled)."""
        return self.faults.perturb_breakdown(breakdown)
