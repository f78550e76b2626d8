"""Runtime invariant monitors for the cluster simulator.

Every performance PR so far has justified itself with one-off parity
checks ("byte-identical when X is off").  The monitors here make the
underlying *state* invariants permanent: with ``SimulationConfig.verify``
enabled, a :class:`VerificationHarness` is attached to the simulator and,
after every applied decision and every processed event, re-asserts the
laws the optimised data structures are supposed to preserve:

* **container conservation** -- every container ever created is exactly
  one of pooled / running / destroyed, and live-memory accounting matches
  the live set (:class:`ConservationMonitor`);
* **capacity and concurrency bounds** -- no pool shard exceeds its
  capacity, no worker holds more concurrency slots than configured, the
  placement books hold exactly the live containers, and per-worker
  memory bookkeeping sums correctly (:class:`CapacityMonitor`);
* **pool-index consistency** -- the fingerprint match index of every
  :class:`~repro.cluster.pool.WarmPool` describes exactly the pooled
  containers, every bucket iterates in ascending
  ``(last_used_at, container_id)`` order (the MRU lookups read its
  tail), and the :class:`~repro.cluster.pool.PoolSet` shard map agrees
  with the shards (:class:`PoolIndexMonitor`);
* **volume mount/unmount pairing** -- the cleaner's mount and unmount
  counters balance against the volumes actually mounted, and no live
  container ever holds a foreign user-data volume
  (:class:`VolumeMonitor`);
* **clock monotonicity** -- simulation time never rewinds and no event is
  scheduled in the past (:class:`ClockMonitor`);
* **TTL-expiry ordering** -- expired containers really were expired, they
  leave in LRU order, and no pooled container outlives its TTL
  (:class:`TTLMonitor`).

Monitors deliberately read the private state of the structures they
check: they are the adversarial audit of those structures, so going
through the same public accessors the hot path uses would verify nothing.
When verification is disabled the simulator holds no harness at all and
the hooks reduce to a single ``is None`` test per event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.containers.container import Container
from repro.containers.volumes import VolumeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.simulator import ClusterSimulator

#: Absolute slack for floating-point accounting comparisons (MB / seconds).
_EPS = 1e-6


class InvariantViolation(AssertionError):
    """A runtime invariant monitor caught an inconsistent simulator state."""


class InvariantMonitor:
    """Base class of the pluggable invariant-monitor protocol.

    Subclasses override :meth:`check` (full-state assertion, run at every
    harness checkpoint) and/or :meth:`on_event` (fine-grained notification
    from the instrumented layers).  Both default to no-ops so monitors
    implement only what they watch.
    """

    #: Short name used in violation messages and registries.
    name: str = "invariant"

    def __init__(self) -> None:
        self.sim: Optional["ClusterSimulator"] = None

    def attach(self, sim: "ClusterSimulator") -> None:
        """Bind the monitor to the simulator whose state it audits."""
        self.sim = sim

    def on_event(self, kind: str, **info) -> None:
        """Receive a fine-grained notification from an instrumented layer."""

    def check(self) -> None:
        """Assert the monitored invariant over the full simulator state."""

    def fail(self, message: str) -> None:
        """Raise an :class:`InvariantViolation` tagged with this monitor."""
        raise InvariantViolation(f"[{self.name}] {message}")


class ConservationMonitor(InvariantMonitor):
    """created = pooled + running + destroyed, with matching accounting."""

    name = "conservation"

    def check(self) -> None:
        """Audit the live set, state partition and live-memory accounting."""
        lifecycle = self.sim.lifecycle
        live = lifecycle._live
        n_live = lifecycle.created_count - lifecycle.destroyed_count
        if len(live) != n_live:
            self.fail(
                f"live set has {len(live)} containers but counters say "
                f"{lifecycle.created_count} created - "
                f"{lifecycle.destroyed_count} destroyed = {n_live}"
            )
        pooled_ids = {c.container_id for c in self.sim.pool.containers()}
        n_running = 0
        for cid, container in live.items():
            if cid in pooled_ids:
                if not container.is_idle:
                    self.fail(
                        f"pooled container {cid} is {container.state.value}, "
                        "not idle"
                    )
            else:
                if not container.is_busy:
                    self.fail(
                        f"live unpooled container {cid} is "
                        f"{container.state.value}, not starting or executing"
                    )
                n_running += 1
        orphans = pooled_ids - set(live)
        if orphans:
            self.fail(f"pooled containers {sorted(orphans)} are not live")
        total = len(pooled_ids) + n_running + lifecycle.destroyed_count
        if total != lifecycle.created_count:
            self.fail(
                f"conservation broken: {lifecycle.created_count} created != "
                f"{len(pooled_ids)} pooled + {n_running} running + "
                f"{lifecycle.destroyed_count} destroyed"
            )
        expected_mb = sum(c.memory_mb for c in live.values())
        if abs(lifecycle.live_memory_mb - expected_mb) > _EPS * max(
            1.0, expected_mb
        ):
            self.fail(
                f"live memory accounting drifted: recorded "
                f"{lifecycle.live_memory_mb:.6f}MB, live set sums to "
                f"{expected_mb:.6f}MB"
            )


class CapacityMonitor(InvariantMonitor):
    """Pool shards within capacity; worker slots and memory books bounded.

    The worker memory books are checked against a shadow ledger maintained
    from ``create``/``destroy`` notifications rather than against the live
    containers' current memory: worker books price a container at its
    *placement-time* memory and never reprice on repack (the historical
    least-memory selection rule depends on that), so the live sum is not
    an invariant -- but agreement with an independent ledger applying the
    same pricing rule is, and it catches lost or doubled updates.
    """

    name = "capacity"

    def __init__(self) -> None:
        super().__init__()
        self._ledger: List[float] = []

    def attach(self, sim: "ClusterSimulator") -> None:
        """Bind to ``sim`` and zero one shadow-ledger cell per worker."""
        super().attach(sim)
        self._ledger = [0.0] * sim.placement.n_workers

    def on_event(self, kind: str, **info) -> None:
        """Apply create/destroy placement pricing to the shadow ledger."""
        if kind == "create":
            container = info["container"]
            worker_id = self.sim.placement.worker_of(container.container_id)
            self._ledger[worker_id] += container.memory_mb
        elif kind == "destroy":
            # Fired before the placement release, mirroring its arithmetic:
            # the current (possibly repacked) memory, clamped at zero.
            container = info["container"]
            worker_id = self.sim.placement.worker_of(container.container_id)
            self._ledger[worker_id] = max(
                0.0, self._ledger[worker_id] - container.memory_mb
            )

    def check(self) -> None:
        """Audit shard capacity, slot counts, placement and memory books."""
        for index, shard in enumerate(self.sim.pool._shards):
            if shard.used_mb > shard.capacity_mb + _EPS:
                self.fail(
                    f"pool shard {index} holds {shard.used_mb:.3f}MB over "
                    f"its {shard.capacity_mb:.3f}MB capacity"
                )
        placement = self.sim.placement
        limit = placement.concurrency_limit
        if limit is not None:
            for worker_id, n_slots in enumerate(placement.slot_counts()):
                if n_slots > limit:
                    self.fail(
                        f"worker {worker_id} holds {n_slots} concurrency "
                        f"slots over its limit of {limit}"
                    )
        live = self.sim.lifecycle._live
        placed = set(placement._placement)
        if placed != set(live):
            self.fail(
                f"worker placement tracks {sorted(placed)} but live "
                f"containers are {sorted(live)}"
            )
        for worker_id, memory_mb in enumerate(placement.memory_mb):
            expected = self._ledger[worker_id]
            if abs(memory_mb - expected) > _EPS * max(1.0, expected):
                self.fail(
                    f"worker {worker_id} memory book says "
                    f"{memory_mb:.6f}MB, shadow ledger says "
                    f"{expected:.6f}MB"
                )


class PoolIndexMonitor(InvariantMonitor):
    """The fingerprint match index describes exactly the pooled containers,
    each bucket in ascending ``(last_used_at, container_id)`` order."""

    name = "pool-index"

    def check(self) -> None:
        """Audit every shard's L1/L2/L3 index and the PoolSet shard map."""
        pool = self.sim.pool
        seen_ids = set()
        for shard_index, shard in enumerate(pool._shards):
            members = shard._containers
            if set(shard._index_keys) != set(members):
                self.fail(
                    f"shard {shard_index} index keys "
                    f"{sorted(shard._index_keys)} != members {sorted(members)}"
                )
            for cid, image in shard._index_keys.items():
                fps = image.fingerprints
                for idx, key in (
                    (shard._idx_l1, fps[0]),
                    (shard._idx_l2, fps[:2]),
                    (shard._idx_l3, fps),
                ):
                    bucket = idx.get(key)
                    if bucket is None or cid not in bucket:
                        self.fail(
                            f"container {cid} missing from shard "
                            f"{shard_index} index bucket {key!r}"
                        )
            for idx_name, idx in (
                ("L1", shard._idx_l1),
                ("L2", shard._idx_l2),
                ("L3", shard._idx_l3),
            ):
                for key, bucket in idx.items():
                    if not bucket:
                        self.fail(
                            f"shard {shard_index} {idx_name} bucket {key!r} "
                            "is empty but not pruned"
                        )
                    stale = set(bucket) - set(members)
                    if stale:
                        self.fail(
                            f"shard {shard_index} {idx_name} bucket {key!r} "
                            f"indexes unpooled containers {sorted(stale)}"
                        )
                    order = [
                        (c.last_used_at, cid) for cid, c in bucket.items()
                    ]
                    if order != sorted(order):
                        self.fail(
                            f"shard {shard_index} {idx_name} bucket {key!r} "
                            "is not in ascending (last_used_at, "
                            f"container_id) order: {order}"
                        )
            expected_mb = sum(c.memory_mb for c in members.values())
            if abs(shard.used_mb - expected_mb) > _EPS * max(1.0, expected_mb):
                self.fail(
                    f"shard {shard_index} used_mb {shard.used_mb:.6f} != "
                    f"member sum {expected_mb:.6f}"
                )
            if pool.n_shards == 1:
                continue  # one shard keeps no shard map
            for cid in members:
                if pool._shard_of.get(cid) != shard_index:
                    self.fail(
                        f"container {cid} lives in shard {shard_index} but "
                        f"the shard map says {pool._shard_of.get(cid)}"
                    )
            seen_ids |= set(members)
        phantom = set(pool._shard_of) - seen_ids
        if phantom:
            self.fail(f"shard map lists absent containers {sorted(phantom)}")


class VolumeMonitor(InvariantMonitor):
    """Mount/unmount pairing balances; user-data volumes never leak."""

    name = "volumes"

    def __init__(self) -> None:
        super().__init__()
        self._destroyed_mounts = 0

    def on_event(self, kind: str, **info) -> None:
        """Track mounts leaving with destroyed containers.

        Destroyed containers keep their mounted-volume list (the cleaner
        never runs on teardown), so their mounts stay outstanding in the
        store's counters; tracking them keeps the pairing law exact.
        """
        if kind == "destroy":
            self._destroyed_mounts += len(info["container"].mounted_volumes)

    def check(self) -> None:
        """Audit mount/unmount pairing and user-data volume ownership."""
        store = self.sim.volume_store
        live = self.sim.lifecycle._live
        live_mounts = sum(len(c.mounted_volumes) for c in live.values())
        outstanding = store.mount_count - store.unmount_count
        expected = live_mounts + self._destroyed_mounts
        if outstanding != expected:
            self.fail(
                f"mount/unmount pairing broken: {store.mount_count} mounts - "
                f"{store.unmount_count} unmounts = {outstanding}, but "
                f"{live_mounts} volumes are mounted on live containers and "
                f"{self._destroyed_mounts} left with destroyed ones"
            )
        for container in live.values():
            owner = container.current_function
            user_volumes = [
                v for v in container.mounted_volumes
                if v.kind is VolumeKind.USER_DATA
            ]
            if len(user_volumes) > 1:
                self.fail(
                    f"container {container.container_id} mounts "
                    f"{len(user_volumes)} user-data volumes"
                )
            for volume in user_volumes:
                if owner is not None and volume.owner_function != owner:
                    self.fail(
                        f"container {container.container_id} serving "
                        f"{owner!r} still mounts the user-data volume of "
                        f"{volume.owner_function!r}"
                    )


class ClockMonitor(InvariantMonitor):
    """Simulation time only advances; nothing is scheduled in the past."""

    name = "clock"

    def __init__(self) -> None:
        super().__init__()
        self._last_advance = float("-inf")

    def on_event(self, kind: str, **info) -> None:
        """Watch clock advances and reject scheduling into the past."""
        if kind == "advance":
            time = info["time"]
            if time + _EPS < self._last_advance:
                self.fail(
                    f"clock rewound from {self._last_advance:.6f}s to "
                    f"{time:.6f}s"
                )
            self._last_advance = time
        elif kind == "schedule":
            time = info["time"]
            now = self.sim.loop.now
            if time < now - _EPS:
                self.fail(
                    f"event scheduled at {time:.6f}s, in the past of "
                    f"{now:.6f}s"
                )

    def check(self) -> None:
        """Assert the clock never reads earlier than its last advance."""
        now = self.sim.loop.now
        if now + _EPS < self._last_advance:
            self.fail(
                f"clock reads {now:.6f}s but previously advanced to "
                f"{self._last_advance:.6f}s"
            )


class TTLMonitor(InvariantMonitor):
    """TTL expiry evicts exactly the expired containers, oldest first."""

    name = "ttl"

    def on_event(self, kind: str, **info) -> None:
        """Validate each TTL-expiry batch against threshold and LRU order."""
        if kind != "ttl_expired":
            return
        now, ttl = info["now"], info["ttl"]
        containers: Sequence[Container] = info["containers"]
        threshold = now - ttl
        for container in containers:
            if container.last_used_at >= threshold + _EPS:
                self.fail(
                    f"container {container.container_id} expired at "
                    f"{now:.6f}s though last used {container.last_used_at:.6f}s "
                    f"is within the {ttl:.3f}s TTL"
                )
        # Per-shard LRU heads pop oldest-first; with one shard the whole
        # batch must therefore be ordered by idle time.
        if self.sim.pool.n_shards == 1:
            stamps = [c.last_used_at for c in containers]
            if any(a > b + _EPS for a, b in zip(stamps, stamps[1:])):
                self.fail(
                    f"TTL expiry batch out of LRU order: {stamps}"
                )

    def check(self) -> None:
        """Assert no pooled container is idle past the active TTL."""
        ttl = self.sim.eviction.ttl_s
        if ttl is None:
            return
        now = self.sim.loop.now
        for container in self.sim.pool.containers():
            idle = now - container.last_used_at
            if idle > ttl + _EPS:
                self.fail(
                    f"container {container.container_id} idle {idle:.6f}s, "
                    f"past the {ttl:.3f}s TTL, but still pooled"
                )


#: Monitor classes installed by default when ``SimulationConfig.verify``
#: is enabled.
DEFAULT_MONITORS = (
    ConservationMonitor,
    CapacityMonitor,
    PoolIndexMonitor,
    VolumeMonitor,
    ClockMonitor,
    TTLMonitor,
)


class VerificationHarness:
    """Routes layer notifications and checkpoints to a monitor set.

    The simulator owns one harness when ``SimulationConfig.verify`` is on.
    Instrumented layers forward fine-grained notifications through
    :meth:`notify` / :meth:`observe_loop`; the simulator calls
    :meth:`checkpoint` after every applied decision and processed event,
    which runs every monitor's full-state :meth:`~InvariantMonitor.check`.
    The first violated invariant raises :class:`InvariantViolation`.
    """

    def __init__(
        self, monitors: Optional[Sequence[InvariantMonitor]] = None
    ) -> None:
        self.monitors: List[InvariantMonitor] = (
            list(monitors)
            if monitors is not None
            else [cls() for cls in DEFAULT_MONITORS]
        )
        #: Checkpoints executed so far (observability + overhead tests).
        self.checks_run = 0

    def attach(self, sim: "ClusterSimulator") -> None:
        """Bind every monitor to ``sim``."""
        for monitor in self.monitors:
            monitor.attach(sim)

    def notify(self, kind: str, **info) -> None:
        """Forward a layer notification to every monitor."""
        for monitor in self.monitors:
            monitor.on_event(kind, **info)

    def observe_loop(self, kind: str, time: float) -> None:
        """Event-loop observer entry point (``advance`` / ``schedule``)."""
        for monitor in self.monitors:
            monitor.on_event(kind, time=time)

    def checkpoint(self) -> None:
        """Run every monitor's full-state check once."""
        self.checks_run += 1
        for monitor in self.monitors:
            monitor.check()

    def health_report(self) -> dict:
        """Run one checkpoint and report it as a health-check payload.

        The serving plane's ``/healthz`` endpoint calls this on demand:
        instead of letting the first :class:`InvariantViolation` propagate
        (as the per-event hooks do), the violation is captured and returned
        as data -- ``{"healthy": bool, "monitors": [...], "checks_run": n,
        "violation": str | None}`` -- so an unhealthy server answers 500
        with the failed invariant rather than dying mid-request.
        """
        violation: Optional[str] = None
        try:
            self.checkpoint()
        except InvariantViolation as exc:
            violation = str(exc)
        return {
            "healthy": violation is None,
            "monitors": [monitor.name for monitor in self.monitors],
            "checks_run": self.checks_run,
            "violation": violation,
        }
