"""Discrete-event serverless cluster simulator (the policy driver).

Faithful to the paper's system model (Section III-A): invocations arrive
continuously; for each one a scheduler picks a warm container from the
fix-sized pool or cold-starts a new container; after execution the container
is put back into the pool, with the eviction policy making room (or rejecting
the keep-warm request).

The simulator is layered control-plane / data-plane:

* :class:`~repro.cluster.eventloop.EventLoop` -- the clock, the event
  queue and the per-event TTL sweep (control plane);
* :class:`~repro.cluster.lifecycle.ContainerLifecycle` -- container
  create/claim/repack/keep-alive/destroy, the cleaner, volumes and fault
  hooks (data plane);
* :class:`~repro.cluster.placement.PlacementEngine` -- worker selection,
  per-worker memory capacity and startup admission: with a finite
  ``worker_concurrency``, startups beyond the limit queue FIFO on their
  worker and the queueing delay is added to startup latency (and recorded
  separately in telemetry);
* :class:`ClusterSimulator` -- the thin policy driver that turns scheduler
  decisions into lifecycle/placement calls and telemetry records.

The driver exposes three equivalent driving modes:

* :meth:`ClusterSimulator.run` -- batch mode with a
  :class:`~repro.schedulers.base.Scheduler`: every arrival is queued up
  front;
* :meth:`ClusterSimulator.run_stream` -- streaming mode: arrivals are
  pulled one at a time from a lazy
  :class:`~repro.workloads.stream.InvocationStream`, so the event queue
  holds exactly one future arrival (plus in-flight completions) and
  replaying a million-invocation trace never materializes it.  Because
  events are ordered ``(time, priority, seq)`` with arrivals at priority 0,
  the pop order -- and therefore every decision, record and summary -- is
  byte-identical to batch mode (the ``streaming_vs_materialized``
  differential oracle enforces this);
* the incremental API (:meth:`load` / :meth:`next_decision_point` /
  :meth:`apply_decision` / :meth:`finish`) used by the DRL environment, which
  needs to interleave learning with decisions.

All modes share every line of event-handling code, so trained policies see
exactly the dynamics they were trained on.  With ``worker_concurrency``
unset the dynamics (and the resulting telemetry summaries) are identical
to the pre-layering monolith.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro.cluster.eventloop import EventLoop
from repro.cluster.events import EventKind
from repro.cluster.eviction import EvictionPolicy, LRUEviction
from repro.cluster.faults import FaultConfig
from repro.cluster.lifecycle import ContainerLifecycle, InvalidDecisionError
from repro.cluster.placement import PlacementEngine
from repro.cluster.pool import PoolSet
from repro.cluster.telemetry import InvocationRecord, Telemetry
from repro.cluster.worker import WorkerSet
from repro.containers.cleaner import ContainerCleaner
from repro.containers.container import Container
from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel, match_level
from repro.containers.volumes import VolumeStore
from repro.schedulers.base import Decision, Scheduler, SchedulingContext
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
    worker_capacity_mb:
        Optional per-worker memory bound used to filter cold-start
        placement (see :class:`~repro.cluster.placement.PlacementEngine`).
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
    trace: bool = False
    worker_concurrency: Optional[int] = None
    worker_capacity_mb: Optional[float] = None
    bounded_telemetry: bool = False
    verify: bool = False

    def __post_init__(self) -> None:
        if self.worker_concurrency is not None and self.worker_concurrency < 1:
            raise ValueError("worker_concurrency must be >= 1")
        if self.worker_capacity_mb is not None and self.worker_capacity_mb <= 0:
            raise ValueError("worker_capacity_mb must be positive")


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
                trace_enabled=config.trace,
                queueing_enabled=config.worker_concurrency is not None,
                worker_slots=config.worker_concurrency or 1,
            )
        else:
            self.telemetry = Telemetry(
                trace_enabled=config.trace,
                queueing_enabled=config.worker_concurrency is not None,
                worker_slots=config.worker_concurrency or 1,
            )
        self.workers = WorkerSet(config.n_workers)
        self.placement = PlacementEngine(
            self.workers,
            concurrency_limit=config.worker_concurrency,
            worker_capacity_mb=config.worker_capacity_mb,
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
        self.loop = EventLoop(
            sweep=self.lifecycle.expire_ttl,
            observer=(
                self.verifier.observe_loop if self.verifier is not None else None
            ),
        )
        self._pending: Optional[Invocation] = None
        self._arrival_source: Optional[Iterator[Invocation]] = None
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
    # Batch mode
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
        self.load(workload)
        while True:
            ctx = self.next_decision_point()
            if ctx is None:
                break
            self._apply(scheduler.decide(ctx), want_record=False)
        self._fold_scheduler_counters(scheduler)
        return self.finish(scheduler_name=scheduler.name)

    def _fold_scheduler_counters(self, scheduler: Scheduler) -> None:
        """Copy a policy's surrogate-audit counters into telemetry.

        Schedulers have no telemetry handle inside ``decide``, so policies
        that serve from a distilled surrogate (see
        ``MLCRScheduler.attach_surrogate``) count audits locally; the run
        drivers fold the totals in here once the decision loop ends.
        """
        audits = getattr(scheduler, "surrogate_audits", 0)
        if audits:
            self.telemetry.record_surrogate_audit(
                audits, getattr(scheduler, "surrogate_disagreements", 0)
            )

    # ------------------------------------------------------------------
    # Streaming mode
    # ------------------------------------------------------------------
    def run_stream(
        self, stream: Iterable[Invocation], scheduler: Scheduler
    ) -> SimulationResult:
        """Simulate a lazy invocation stream end-to-end under ``scheduler``.

        Equivalent to :meth:`run` on the materialized workload -- same
        decisions, same telemetry rows, same summary -- but arrivals are
        pulled from ``stream`` one at a time, so the event queue never
        holds more than one future arrival and memory stays O(in-flight
        containers) regardless of trace length.  Combine with
        ``SimulationConfig(bounded_telemetry=True)`` to keep the telemetry
        side O(1) as well.
        """
        self.load_stream(stream)
        while True:
            ctx = self.next_decision_point()
            if ctx is None:
                break
            self._apply(scheduler.decide(ctx), want_record=False)
        self._fold_scheduler_counters(scheduler)
        return self.finish(scheduler_name=scheduler.name)

    def load_stream(self, stream: Iterable[Invocation]) -> None:
        """Attach a lazy arrival source and schedule its first arrival.

        The remaining arrivals are pulled one at a time as the simulation
        progresses (each popped arrival primes the next).  The stream must
        yield invocations in non-decreasing ``arrival_time`` order;
        :meth:`_prime_next_arrival` raises ``ValueError`` otherwise, since
        a late-discovered earlier arrival could no longer be scheduled in
        the past.
        """
        if self._finished:
            raise RuntimeError("simulator already finished; build a new one")
        if self._arrival_source is not None:
            raise RuntimeError("an arrival stream is already attached")
        self._workload_name = getattr(stream, "name", "<stream>")
        self._arrival_source = iter(stream)
        self._prime_next_arrival()

    def _prime_next_arrival(self) -> None:
        """Schedule the next arrival from the attached stream, if any."""
        source = self._arrival_source
        if source is None:
            return
        inv = next(source, None)
        if inv is None:
            self._arrival_source = None
            return
        if inv.arrival_time < self._last_arrival_t:
            raise ValueError(
                "arrival stream is not sorted: got t="
                f"{inv.arrival_time:.6f} after t={self._last_arrival_t:.6f}"
            )
        self._last_arrival_t = inv.arrival_time
        self.loop.schedule(inv.arrival_time, EventKind.ARRIVAL, inv)

    # ------------------------------------------------------------------
    # Incremental mode (used by the DRL environment)
    # ------------------------------------------------------------------
    def load(self, workload: Workload) -> None:
        """Queue every arrival of ``workload``; resets nothing else."""
        if self._finished:
            raise RuntimeError("simulator already finished; build a new one")
        self._workload_name = workload.name
        for inv in workload:
            self.loop.schedule(inv.arrival_time, EventKind.ARRIVAL, inv)

    def prewarm(self, image, owner_name: str = "prewarm") -> Container:
        """Provision an idle warm container before (or between) arrivals.

        Implements proactive pre-warming (Shahrad et al.) and zygote
        provisioning (Li et al.): the container appears in the pool
        immediately and consumes pool capacity; the eviction policy makes
        room if needed.  When the container lands in the pool the warm
        memory is sampled (``telemetry.sample_memory``) so prewarm
        experiments get accurate pool-occupancy traces.  Routed through
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
        """Inject a single arrival into the event loop (online feed).

        The serving plane (:mod:`repro.serve`) stamps each incoming request
        with a wall-relative arrival time and offers it here one at a time;
        :meth:`next_decision_point` then processes every due completion and
        returns the request's scheduling context exactly as the offline
        modes would.  Arrival times must be non-decreasing across calls
        (and across any stream fed via :meth:`load_stream`), mirroring the
        streaming feed's ordering contract.
        """
        if self._finished:
            raise RuntimeError("simulator already finished; build a new one")
        if invocation.arrival_time < self._last_arrival_t:
            raise ValueError(
                "arrival offered out of order: got t="
                f"{invocation.arrival_time:.6f} after "
                f"t={self._last_arrival_t:.6f}"
            )
        self._last_arrival_t = invocation.arrival_time
        self.loop.schedule(invocation.arrival_time, EventKind.ARRIVAL,
                           invocation)

    def pump_until(self, time: float) -> int:
        """Process every due non-arrival event, then sweep at ``time``.

        The serving plane's janitor calls this on a timer: completions
        whose scheduled time has passed are handled exactly as the offline
        loop would handle them (each pop advances the clock and runs the
        TTL sweep), and the trailing :meth:`~EventLoop.advance_to` runs one
        more sweep at ``time`` so idle containers expire -- and the pool
        scales to zero -- even when no event is due.  Returns the number of
        events processed.  Raises if an undecided arrival is due (arrivals
        must go through :meth:`next_decision_point`).
        """
        if self._pending is not None:
            raise RuntimeError("pending decision not applied")
        handled = 0
        while (event := self.loop.peek()) is not None and event.time <= time:
            if event.kind is EventKind.ARRIVAL:
                raise RuntimeError(
                    "pump_until reached an undecided arrival; drive it "
                    "through next_decision_point/apply_decision"
                )
            self._handle_non_arrival(self.loop.pop_next())
            handled += 1
        self.loop.advance_to(time)
        if self.verifier is not None:
            self.verifier.checkpoint()
        return handled

    def next_decision_point(self) -> Optional[SchedulingContext]:
        """Advance until the next arrival; return its scheduling context.

        Completion events between arrivals are processed internally.
        Returns ``None`` once all arrivals have been handled.
        """
        if self._pending is not None:
            raise RuntimeError("previous decision not applied yet")
        while (event := self.loop.pop_next()) is not None:
            if event.kind is EventKind.ARRIVAL:
                self._pending = event.payload
                # Streaming feed: replace the consumed arrival with the
                # stream's next one before any decision is taken, so the
                # queue again holds exactly one future arrival.
                self._prime_next_arrival()
                return self._context_for(self._pending)
            self._handle_non_arrival(event)
        return None

    def apply_decision(self, decision: Decision) -> InvocationRecord:
        """Execute a scheduling decision for the pending invocation.

        A rejected decision (:class:`InvalidDecisionError`) leaves the
        pending invocation in place, so the caller can retry with a valid
        decision instead of silently losing the arrival.
        """
        return self._apply(decision, want_record=True)

    def _apply(
        self, decision: Decision, want_record: bool
    ) -> Optional[InvocationRecord]:
        """Shared decision executor; builds the row view only on request."""
        if self._pending is None:
            raise RuntimeError("no pending invocation; call next_decision_point")
        invocation = self._pending
        spec = invocation.spec
        now = self.loop.now

        if decision.is_cold:
            container = self.lifecycle.create(spec.image, spec.name, now)
            match = MatchLevel.NO_MATCH
            old_image = spec.image
        else:
            # claim() validates before mutating: an InvalidDecisionError
            # propagates with self._pending intact.
            container = self.lifecycle.claim(decision.container_id, spec, now)
            old_image = container.image
            # Zygote-style reuse keeps the container's own (superset) image;
            # the cleaner then only swaps the user-data volume.
            target_image = (
                container.image if decision.preserve_image else spec.image
            )
            result = self.lifecycle.repack(container, target_image, spec.name)
            match = (
                match_level(spec.image, container.image)
                if decision.preserve_image
                else result.match
            )
        self._pending = None
        self.telemetry.sample_live_memory(self.lifecycle.live_memory_mb)

        if not decision.is_cold and self.config.delta_pricing:
            breakdown = self.config.cost_model.delta_breakdown(
                spec.image, old_image, spec.function_init_s
            )
        else:
            breakdown = self.config.cost_model.breakdown(
                spec.image, match, spec.function_init_s
            )
        if self.lifecycle.faults_enabled:
            breakdown, straggled = self.lifecycle.perturb_breakdown(breakdown)
            if straggled:
                self.telemetry.record_straggler()
        service_s = breakdown.total_s
        worker_id = self.workers.worker_of(container.container_id)
        start_at, queue_delay = self.placement.admit(
            worker_id, now, service_s + invocation.execution_time_s
        )
        latency = queue_delay + service_s
        ready_at = start_at + service_s
        container.begin_startup(spec.name, now, ready_at)
        self.loop.schedule(ready_at, EventKind.STARTUP_COMPLETE,
                           (container, invocation))
        self.eviction.on_function_start(spec.name, latency,
                                        container.memory_mb, now)
        if self.telemetry.queueing_enabled:
            self.telemetry.record_queueing(queue_delay)
            self.telemetry.record_queue_depth(
                max(self.placement.queue_depths(now))
            )
            self.telemetry.record_worker_busy(
                worker_id, service_s + invocation.execution_time_s
            )
        if self.telemetry.trace_enabled:
            # Guarded so the detail string is only formatted when tracing.
            self.telemetry.record_event(
                now,
                "cold_start" if decision.is_cold else f"warm_{match.name}",
                container.container_id,
                spec.name,
                f"latency={latency:.3f}s",
            )
        self.telemetry.record_invocation_values(
            invocation.invocation_id,
            spec.name,
            invocation.arrival_time,
            container.container_id,
            decision.is_cold,
            int(match),
            latency,
            breakdown.create_s,
            breakdown.pull_s,
            breakdown.install_s,
            breakdown.runtime_init_s,
            breakdown.function_init_s,
            breakdown.clean_s,
            invocation.execution_time_s,
            queue_delay,
            worker_id,
        )
        # Proactive actions attached by MPC/lending policies execute right
        # after the decision itself, in every driving mode (batch, stream,
        # incremental, online serve), keeping the modes decision-identical.
        if decision.actions:
            self.lifecycle.apply_actions(decision.actions, now)
        if self.verifier is not None:
            self.verifier.checkpoint()
        if not want_record:
            return None
        return InvocationRecord(
            invocation_id=invocation.invocation_id,
            function_name=spec.name,
            arrival_time=invocation.arrival_time,
            container_id=container.container_id,
            cold_start=decision.is_cold,
            match=match,
            startup_latency_s=latency,
            breakdown=breakdown,
            execution_time_s=invocation.execution_time_s,
            queue_delay_s=queue_delay,
            worker_id=worker_id,
        )

    def finish(self, scheduler_name: str = "policy") -> SimulationResult:
        """Drain remaining events and return the run result."""
        if self._pending is not None:
            raise RuntimeError("pending decision not applied")
        while (event := self.loop.pop_next()) is not None:
            if event.kind is EventKind.ARRIVAL:
                raise RuntimeError("finish() called with arrivals outstanding")
            self._handle_non_arrival(event)
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
        now = self.loop.now
        return SchedulingContext(
            now=now,
            invocation=invocation,
            idle_containers=tuple(self.pool.lru_order()),
            cost_model=self.config.cost_model,
            pool_capacity_mb=self.pool.capacity_mb,
            pool_used_mb=self.pool.used_mb,
            pool=self.pool,
            worker_loads=self.workers.container_counts(),
            queue_depths=self.placement.queue_depths(now),
        )

    def _handle_non_arrival(self, event) -> None:
        container, invocation = event.payload
        now = self.loop.now
        if event.kind is EventKind.STARTUP_COMPLETE:
            finish_at = now + invocation.execution_time_s
            container.begin_execution(now, finish_at)
            self.loop.schedule(finish_at, EventKind.EXECUTION_COMPLETE,
                               (container, invocation))
        elif event.kind is EventKind.EXECUTION_COMPLETE:
            container.finish_execution(now)
            if self.telemetry.trace_enabled:
                self.telemetry.record_event(
                    now, "execution_complete", container.container_id,
                    container.current_function,
                )
            if self.lifecycle.faults_enabled and self.lifecycle.should_crash():
                self.lifecycle.destroy(container)
                self.telemetry.record_crash()
                if self.telemetry.trace_enabled:
                    self.telemetry.record_event(
                        now, "crash", container.container_id,
                        container.current_function,
                    )
            else:
                self.lifecycle.keep_alive(container, now)
        else:  # pragma: no cover - exhaustive enum
            raise RuntimeError(f"unhandled event kind {event.kind}")
        if self.verifier is not None:
            self.verifier.checkpoint()
