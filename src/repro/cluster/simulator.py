"""Discrete-event serverless cluster simulator (the policy driver).

Faithful to the paper's system model (Section III-A): invocations arrive
continuously; for each one a scheduler picks a warm container from the
fix-sized pool or cold-starts a new container; after execution the container
is put back into the pool, with the eviction policy making room (or rejecting
the keep-warm request).

The simulator is layered control-plane / data-plane:

* :class:`~repro.cluster.eventloop.EventLoop` -- the clock and the
  completion queue (control plane), owned by the lifecycle; each clock
  advance runs the lifecycle's TTL sweep, passed per call;
* :class:`~repro.cluster.lifecycle.ContainerLifecycle` -- one
  invocation's lifecycle (start, complete) as the lane kernel runs it,
  plus keep-alive/destroy, the cleaner, volumes, monitors and fault
  hooks (data plane);
* :class:`~repro.cluster.placement.PlacementEngine` -- the worker books
  (which worker hosts each container, memory per worker), worker
  selection and startup admission: with a finite
  ``worker_concurrency``, startups beyond the limit queue FIFO on their
  worker and the queueing delay is added to startup latency (and recorded
  separately in telemetry);
* :class:`ClusterSimulator` -- the thin policy driver that wraps the
  shared start with pricing, faults, placement and queueing, the
  verifier and telemetry records.

The driver holds at most one undecided arrival, in a slot.  Every driving
mode feeds that slot through one checked path, and arrivals must come in
non-decreasing time order and never behind the clock:

* :meth:`ClusterSimulator.run` / :meth:`ClusterSimulator.run_stream` --
  one drive loop with a :class:`~repro.schedulers.base.Scheduler` over a
  :class:`~repro.workloads.workload.Workload` or any iterable of
  invocations (a lazy :class:`~repro.workloads.stream.InvocationStream`
  included).  The source is pulled one arrival at a time, so replaying a
  million-invocation trace never materializes it;
* the incremental API (:meth:`load` / :meth:`next_decision_point` /
  :meth:`apply_decision` / :meth:`finish`) used by the DRL environment,
  which interleaves its own work with decisions:
  :meth:`next_decision_point` hands out the pending arrival's
  :class:`~repro.schedulers.base.SchedulingContext` (invocation, warm pool,
  cost model) and :meth:`apply_decision` takes the
  :data:`~repro.schedulers.base.PoolDecision` that
  :meth:`~repro.schedulers.base.Scheduler.decide` returns for those three
  fields;
* the online feed (:meth:`offer` / :meth:`pump_until`) used by the serving
  engine, which puts one arrival in the slot at a time.

:meth:`next_decision_point` completes the invocations due strictly
before the slot's arrival (``EventLoop.drain_until``; each lane pops
the same order off its own loop's heap), then advances the clock to it
(running the TTL sweep), so an arrival wins every time tie with a
completion.

Every mode decides through the policy's
:meth:`~repro.schedulers.base.Scheduler.decide` rule, the one decision
interface, which the lane kernel calls too.

Each decided invocation queues one completion event, due when its startup
and execution are both done
(:meth:`~repro.cluster.lifecycle.ContainerLifecycle.complete` pools or,
on an injected crash, destroys the container then).  All modes share
every line of
event-handling code, so trained policies see exactly the dynamics they
were trained on.  With ``worker_concurrency`` unset the dynamics (and the
resulting telemetry summaries) are identical to the pre-layering
monolith.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro.cluster.eviction import EvictionPolicy, LRUEviction, start_hook
from repro.cluster.faults import FaultConfig
from repro.cluster.lifecycle import ContainerLifecycle, InvalidDecisionError
from repro.cluster.placement import PlacementEngine
from repro.cluster.pool import PoolSet
from repro.cluster.telemetry import InvocationRecord, Telemetry
from repro.containers.cleaner import ContainerCleaner
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
# Not called here (the warm match comes from the lifecycle's start), but
# the repository benchmark's tracer patches and checks this module's
# by-value alias.
from repro.containers.matching import match_level  # noqa: F401
from repro.containers.volumes import VolumeStore
from repro.schedulers.base import PoolDecision, Scheduler, SchedulingContext
from repro.workloads.workload import Invocation, Workload

__all__ = [
    "ClusterSimulator",
    "InvalidDecisionError",
    "SimulationConfig",
    "SimulationResult",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Cluster configuration.

    Parameters
    ----------
    pool_capacity_mb:
        Warm-pool memory capacity (``float("inf")`` = unbounded, used to
        derive the paper's *Loose* sizing).
    cost_model:
        Startup cost model shared by scheduling estimates and actual costs.
    n_workers:
        Worker nodes in the cluster.  With ``worker_concurrency`` set this
        is a first-class experimental knob: fewer workers means more
        startup queueing at the same arrival rate.
    delta_pricing:
        Price warm reuse by per-package deltas
        (:meth:`StartupCostModel.delta_breakdown`) instead of Table-I level
        costs.  Enables W-style and zygote-style experiments where a
        container's extra packages should not be re-pulled.
    per_worker_pools:
        Partition the warm-pool capacity into one shard per worker (the
        paper's "each worker has a reserved memory space").  Scheduling
        still sees the union of idle containers; keep-alive and eviction
        happen on the container's own worker.
    worker_concurrency:
        Maximum containers concurrently starting or executing per worker.
        ``None`` (the default) disables admission control entirely and
        reproduces the historical no-contention dynamics byte-for-byte;
        a finite limit queues excess startups FIFO per worker, adds the
        queueing delay to startup latency, and unlocks the queueing /
        utilization telemetry block.
    bounded_telemetry:
        Collect telemetry with
        :class:`~repro.cluster.telemetry.BoundedTelemetry`: exact counters
        plus relative-error quantile sketches instead of per-invocation
        columns, so a 10M-invocation streaming replay records O(1) state.
        Summaries carry the same keys; the latency/queueing percentiles
        are sketch estimates (within the sketch's relative-accuracy bound)
        rather than exact order statistics.  Row views
        (``telemetry.records``, golden-trace recording) are unavailable in
        this mode.
    verify:
        Attach the :mod:`repro.verify` invariant monitors
        (:class:`~repro.verify.invariants.VerificationHarness`): after
        every applied decision and processed event the full set of runtime
        invariants (container conservation, capacity/concurrency bounds,
        pool-index consistency, volume pairing, clock monotonicity, TTL
        ordering) is re-asserted, raising
        :class:`~repro.verify.invariants.InvariantViolation` on the first
        breach.  Off by default; when off the simulator holds no harness
        and the hooks cost one ``is None`` test per event.
    """

    pool_capacity_mb: float
    cost_model: StartupCostModel = field(default_factory=StartupCostModel)
    n_workers: int = 4
    delta_pricing: bool = False
    per_worker_pools: bool = False
    faults: "FaultConfig" = field(default_factory=lambda: FaultConfig())
    worker_concurrency: Optional[int] = None
    bounded_telemetry: bool = False
    verify: bool = False

    def __post_init__(self) -> None:
        if self.worker_concurrency is not None and self.worker_concurrency < 1:
            raise ValueError("worker_concurrency must be >= 1")


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run."""

    workload_name: str
    scheduler_name: str
    pool_capacity_mb: float
    telemetry: Telemetry

    def summary(self) -> Dict[str, float]:
        """Scalar summary of the run's telemetry."""
        return self.telemetry.summary()


class ClusterSimulator:
    """The event-driven serverless platform (policy driver layer)."""

    def __init__(
        self,
        config: SimulationConfig,
        eviction_policy: EvictionPolicy | None = None,
    ) -> None:
        self.config = config
        self.eviction = eviction_policy or LRUEviction()
        # Deferred import: repro.verify depends on this module.
        if config.verify:
            from repro.verify.invariants import VerificationHarness

            self.verifier: Optional[VerificationHarness] = VerificationHarness()
        else:
            self.verifier = None
        self.pool = PoolSet(
            config.pool_capacity_mb,
            n_shards=config.n_workers if config.per_worker_pools else 1,
        )
        if config.bounded_telemetry:
            from repro.cluster.telemetry import BoundedTelemetry

            self.telemetry: Telemetry = BoundedTelemetry(
                queueing_enabled=config.worker_concurrency is not None,
                worker_slots=config.worker_concurrency or 1,
            )
        else:
            self.telemetry = Telemetry(
                queueing_enabled=config.worker_concurrency is not None,
                worker_slots=config.worker_concurrency or 1,
            )
        self.placement = PlacementEngine(
            config.n_workers,
            concurrency_limit=config.worker_concurrency,
        )
        self.lifecycle = ContainerLifecycle(
            pool=self.pool,
            eviction=self.eviction,
            telemetry=self.telemetry,
            placement=self.placement,
            faults=config.faults,
            per_worker_pools=config.per_worker_pools,
            monitor=self.verifier,
        )
        self.loop = self.lifecycle.loop
        # The lifecycle's completion handler and TTL sweep, bound once;
        # the start hook only when the policy overrides the base no-op.
        self._complete = self.lifecycle.complete
        self._expire_ttl = self.lifecycle.expire_ttl
        self._on_start = start_hook(self.eviction)
        # The arrival slot: the next undecided arrival, if any, and the
        # loaded source that refills it.  ``_pending`` is the arrival
        # handed out by next_decision_point and not yet applied.
        self._arrival: Optional[Invocation] = None
        self._source: Optional[Iterator[Invocation]] = None
        self._pending: Optional[Invocation] = None
        self._last_arrival_t = 0.0
        self._workload_name = "<none>"
        self._finished = False
        if self.verifier is not None:
            self.verifier.attach(self)

    # ------------------------------------------------------------------
    # Convenience views over the layers
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (owned by the event loop's clock)."""
        return self.loop.now

    @property
    def volume_store(self) -> VolumeStore:
        """The lifecycle layer's volume store."""
        return self.lifecycle.volume_store

    @property
    def cleaner(self) -> ContainerCleaner:
        """The lifecycle layer's container cleaner."""
        return self.lifecycle.cleaner

    # ------------------------------------------------------------------
    # Driving a whole run
    # ------------------------------------------------------------------
    def run(self, workload: Workload, scheduler: Scheduler) -> SimulationResult:
        """Simulate ``workload`` end-to-end under ``scheduler``.

        Uses the columnar telemetry ingest path: per-invocation outcomes go
        straight into the column buffers without materializing an
        :class:`InvocationRecord` per event (the discarded return value of
        :meth:`apply_decision`).  The recorded rows are identical either
        way -- the ``batch_vs_incremental`` differential oracle holds both
        modes to that.
        """
        return self._drive(workload, scheduler)

    def run_stream(
        self, stream: Iterable[Invocation], scheduler: Scheduler
    ) -> SimulationResult:
        """Simulate a lazy invocation stream end-to-end under ``scheduler``.

        The same drive loop as :meth:`run`: arrivals are pulled from
        ``stream`` one at a time, so memory stays O(in-flight containers)
        regardless of trace length.  Combine with
        ``SimulationConfig(bounded_telemetry=True)`` to keep the telemetry
        side O(1) as well.
        """
        return self._drive(stream, scheduler)

    def _drive(
        self, arrivals: Iterable[Invocation], scheduler: Scheduler
    ) -> SimulationResult:
        """Load ``arrivals``, decide and apply each one, finish the run."""
        self.load(arrivals)
        decide = scheduler.decide
        while True:
            ctx = self.next_decision_point()
            if ctx is None:
                break
            self._apply(
                decide(ctx.pool, ctx.invocation, ctx.cost_model),
                want_record=False,
            )
        self._fold_scheduler_counters(scheduler)
        return self.finish(scheduler_name=scheduler.name)

    def _fold_scheduler_counters(self, scheduler: Scheduler) -> None:
        """Copy a policy's surrogate-audit counters into telemetry.

        Schedulers have no telemetry handle inside ``decide``, so
        policies that serve from a distilled surrogate (see
        ``MLCRScheduler.attach_surrogate``) count audits locally; the run
        drivers fold the totals in here once the decision loop ends.
        """
        audits = getattr(scheduler, "surrogate_audits", 0)
        if audits:
            self.telemetry.record_surrogate_audit(
                audits, getattr(scheduler, "surrogate_disagreements", 0)
            )

    # ------------------------------------------------------------------
    # The arrival slot
    # ------------------------------------------------------------------
    def load(self, arrivals: Iterable[Invocation]) -> None:
        """Attach an arrival source; its first arrival fills the slot.

        ``arrivals`` is a :class:`~repro.workloads.workload.Workload` or any
        iterable of invocations in non-decreasing ``arrival_time`` order.
        It is pulled lazily: each arrival handed out by
        :meth:`next_decision_point` is replaced by the source's next one.
        An out-of-order arrival raises ``ValueError`` when it is pulled.
        Raises ``RuntimeError`` while an arrival (offered, or from an
        earlier source) is still undecided.
        """
        if self._finished:
            raise RuntimeError("simulator already finished; build a new one")
        if self._arrival is not None:
            raise RuntimeError(
                f"load() while arrival {self._arrival.invocation_id} is "
                "still undecided"
            )
        self._workload_name = getattr(arrivals, "name", "<stream>")
        self._source = iter(arrivals)
        self._fill(next(self._source, None))

    def _fill(self, invocation: Optional[Invocation]) -> None:
        """Put ``invocation`` in the arrival slot, checking its order.

        The one way into the slot, for loaded and offered arrivals alike.
        ``None`` (an exhausted source) detaches the loaded source instead.
        Raises ``ValueError`` for an arrival earlier than the one before
        it or than the clock, and ``RuntimeError`` when the slot is full.
        """
        if invocation is None:
            self._source = None
            return
        t = invocation.arrival_time
        if t < self._last_arrival_t:
            raise ValueError(
                f"arrival {invocation.invocation_id} out of order: got "
                f"t={t:.6f} after t={self._last_arrival_t:.6f}"
            )
        if t < self.loop.now:
            raise ValueError(
                f"arrival {invocation.invocation_id} at t={t:.6f} is "
                f"behind the clock at t={self.loop.now:.6f}"
            )
        if self._arrival is not None:
            raise RuntimeError(
                f"arrival {invocation.invocation_id} offered while arrival "
                f"{self._arrival.invocation_id} is still undecided"
            )
        self._last_arrival_t = t
        self._arrival = invocation

    # ------------------------------------------------------------------
    # Proactive provisioning
    # ------------------------------------------------------------------
    def prewarm(self, image, owner_name: str = "prewarm") -> Container:
        """Provision an idle warm container before (or between) arrivals.

        Implements proactive pre-warming (Shahrad et al.) and zygote
        provisioning (Li et al.): the container appears in the pool
        immediately and consumes pool capacity; the eviction policy makes
        room if needed.  When the container lands in the pool the warm
        memory is sampled (``telemetry.sample_memory``), so the run's
        warm-memory peak counts pre-warmed containers.  Routed through
        :meth:`ContainerLifecycle.prewarm`, so the pre-warm accounting
        counters (issued / reused / wasted) cover zygote provisioning too.
        """
        container = self.lifecycle.prewarm(image, owner_name, self.loop.now)
        if self.verifier is not None:
            self.verifier.checkpoint()
        return container

    # ------------------------------------------------------------------
    # Online feed (used by the serving plane)
    # ------------------------------------------------------------------
    def offer(self, invocation: Invocation) -> None:
        """Put a single arrival in the slot (online feed).

        The serving plane (:mod:`repro.serve`) stamps each incoming request
        with a wall-relative arrival time and offers it here one at a time;
        :meth:`next_decision_point` then processes every due completion and
        returns the request's scheduling context exactly as the offline
        modes would.  Arrival times must be non-decreasing across calls
        and not behind the clock (``ValueError`` otherwise).  Raises
        ``RuntimeError`` while a loaded source still has arrivals or an
        earlier offer is undecided.
        """
        if self._finished:
            raise RuntimeError("simulator already finished; build a new one")
        if self._source is not None:
            raise RuntimeError(
                f"offer() of arrival {invocation.invocation_id} while a "
                "loaded source still has arrivals"
            )
        self._fill(invocation)

    def pump_until(self, time: float) -> int:
        """Process every due completion, then sweep at ``time``.

        The serving plane's janitor calls this on a timer: completions
        whose scheduled time has passed are handled exactly as the offline
        loop would handle them (each pop advances the clock and runs the
        TTL sweep), and the trailing :meth:`~EventLoop.advance_to` runs one
        more sweep at ``time`` so idle containers expire -- and the pool
        scales to zero -- even when no event is due.  Returns the number of
        events processed.  Raises, with nothing processed, if an undecided
        arrival is due by ``time`` (arrivals must go through
        :meth:`next_decision_point`).
        """
        if self._pending is not None:
            raise RuntimeError("pending decision not applied")
        if self._arrival is not None and self._arrival.arrival_time <= time:
            raise RuntimeError(
                "pump_until reached an undecided arrival; drive it "
                "through next_decision_point/apply_decision"
            )
        loop = self.loop
        sweep = self._expire_ttl if self.eviction.ttl_s is not None else None
        queued = len(loop)
        # Strictly before the next float after ``time``: due by ``time``.
        loop.drain_until(math.nextafter(time, math.inf), self._complete,
                         sweep)
        handled = queued - len(loop)
        loop.advance_to(time, sweep)
        if self.verifier is not None:
            self.verifier.checkpoint()
        return handled

    def next_decision_point(self) -> Optional[SchedulingContext]:
        """Advance to the slot's arrival; return its scheduling context.

        Completions due strictly before the arrival are processed first,
        then the clock advances to it (running the TTL sweep), and a loaded
        source refills the slot before the context is handed out.  Returns
        ``None`` once every arrival has been handled.
        """
        if self._pending is not None:
            raise RuntimeError("previous decision not applied yet")
        invocation = self._arrival
        if invocation is None:
            return None
        t = invocation.arrival_time
        loop = self.loop
        # No sweep while the policy has no TTL.  Read per arrival: the
        # serving engine may set one after construction.
        sweep = self._expire_ttl if self.eviction.ttl_s is not None else None
        loop.drain_until(t, self._complete, sweep)
        loop.advance_to(t, sweep)
        self._arrival = None
        self._pending = invocation
        if self._source is not None:
            self._fill(next(self._source, None))
        return self._context_for(invocation)

    def apply_decision(self, decision: PoolDecision) -> InvocationRecord:
        """Execute a scheduling decision for the pending invocation.

        ``decision`` is a :data:`~repro.schedulers.base.PoolDecision`; a
        warm pick is validated against the live pool before anything
        changes, and the validation derives its match level.  A
        rejected decision (:class:`InvalidDecisionError`) leaves the
        pending invocation in place, so the caller can retry with a valid
        decision instead of silently losing the arrival.
        """
        return self._apply(decision, want_record=True)

    def _apply(
        self, decision: PoolDecision, want_record: bool
    ) -> Optional[InvocationRecord]:
        """Shared decision executor; builds the row view only on request."""
        if self._pending is None:
            raise RuntimeError("no pending invocation; call next_decision_point")
        invocation = self._pending
        spec = invocation.spec
        loop = self.loop
        now = loop.now
        config = self.config
        lifecycle = self.lifecycle
        picked, preserve, actions = decision
        # start() validates a warm pick before it changes anything: an
        # InvalidDecisionError propagates with self._pending intact.
        container, match, old_image = lifecycle.start(
            spec, picked, preserve, now
        )
        self._pending = None

        if picked is not None and config.delta_pricing:
            breakdown = config.cost_model.delta_breakdown(
                spec.image, old_image, spec.function_init_s
            )
        else:
            breakdown = config.cost_model.breakdown(
                spec.image, match, spec.function_init_s
            )
        telemetry = self.telemetry
        if lifecycle.faults_enabled:
            breakdown, straggled = lifecycle.perturb_breakdown(breakdown)
            if straggled:
                telemetry.record_straggler()
        service_s = breakdown.total_s
        execution_s = invocation.execution_time_s
        placement = self.placement
        worker_id = placement.worker_of(container.container_id)
        if config.worker_concurrency is None:
            # No admission control (and no queueing telemetry): the
            # startup begins at once.
            queue_delay = 0.0
            latency = service_s
            ready_at = now + service_s
        else:
            start_at, queue_delay = placement.admit(
                worker_id, now, service_s + execution_s
            )
            latency = queue_delay + service_s
            ready_at = start_at + service_s
            telemetry.record_queueing(queue_delay)
            telemetry.record_queue_depth(max(placement.queue_depths(now)))
            telemetry.record_worker_busy(worker_id, service_s + execution_s)
        # One completion per invocation.  Priority ``ready_at`` pops
        # same-time completions in the order their startups finished.
        loop.schedule(ready_at + execution_s, container, ready_at)
        if self._on_start is not None:
            self._on_start(spec.name, latency, container.image.memory_mb,
                           now)
        telemetry.record_invocation_values(
            invocation.invocation_id,
            spec.name,
            invocation.arrival_time,
            container.container_id,
            picked is None,
            match,
            latency,
            breakdown,
            execution_s,
            queue_delay,
            worker_id,
        )
        # Proactive actions attached by MPC/lending policies execute right
        # after the decision itself, in every driving mode (batch, stream,
        # incremental, online serve), keeping the modes decision-identical.
        if actions:
            lifecycle.apply_actions(actions, now)
        if self.verifier is not None:
            self.verifier.checkpoint()
        if not want_record:
            return None
        return InvocationRecord(
            invocation_id=invocation.invocation_id,
            function_name=spec.name,
            arrival_time=invocation.arrival_time,
            container_id=container.container_id,
            cold_start=picked is None,
            match=match,
            startup_latency_s=latency,
            breakdown=breakdown,
            execution_time_s=execution_s,
            queue_delay_s=queue_delay,
            worker_id=worker_id,
        )

    def finish(self, scheduler_name: str = "policy") -> SimulationResult:
        """Drain remaining events and return the run result."""
        if self._pending is not None:
            raise RuntimeError("pending decision not applied")
        if self._arrival is not None:
            raise RuntimeError("finish() called with arrivals outstanding")
        self.lifecycle.drain_all()
        self._finished = True
        self.telemetry.duration_s = self.loop.now
        if self.verifier is not None:
            self.verifier.checkpoint()
        return SimulationResult(
            workload_name=self._workload_name,
            scheduler_name=scheduler_name,
            pool_capacity_mb=self.config.pool_capacity_mb,
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _context_for(self, invocation: Invocation) -> SchedulingContext:
        return SchedulingContext(invocation, self.pool, self.config.cost_model)
