"""Online serving engine: wall-clock requests over the deterministic core.

The :class:`ServeEngine` is the bridge between real time and the simulator's
virtual time.  It owns a :class:`~repro.cluster.simulator.ClusterSimulator`
(whose event loop keeps its deterministic
:class:`~repro.cluster.eventloop.VirtualClock`) and a wall
:class:`~repro.cluster.eventloop.TimeSource` used for exactly one thing:
*stamping* arrival times.  Every state transition -- completions, TTL
sweeps, keep-alives -- still happens at exact event times inside the
simulator, in the same ``(time, priority, seq)`` order the offline modes
use.  That is the replayability contract: record the stamped arrivals (plus
execution times and scheduler swaps) and a fresh simulator re-driven from
the log makes byte-identical decisions, which the ``serve_replay``
differential oracle asserts.

Three properties make the contract hold:

* **Monotone stamping** -- :meth:`ServeEngine._stamp` clamps every wall
  reading to be no earlier than the last stamp *and* no earlier than the
  event loop's clock, so the arrival sequence is always a valid (sorted)
  stream even if the wall source misbehaves.
* **Atomic decisions** -- :meth:`ServeEngine.submit` runs
  offer -> next_decision_point -> decide -> apply_decision with no await
  points, so concurrent HTTP handlers on one asyncio loop serialize their
  arrivals exactly in stamping order.
* **Decision-neutral pumping** -- the janitor's :meth:`ServeEngine.pump`
  only processes *due* completions and runs TTL sweeps.  Both are monotone:
  a container expired at pump time is also expired at every later event pop
  (which sweeps before handling), so pumping between requests changes
  *when* state transitions are applied, never *what* the next decision
  sees.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Union

from repro.cluster.eventloop import TimeSource, WallClock
from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.cluster.telemetry import InvocationRecord
from repro.experiments.parallel import build_scheduler
from repro.schedulers.base import Scheduler
from repro.workloads.functions import (
    FunctionSpec,
    function_by_id,
    function_by_name,
)
from repro.workloads.workload import Invocation

__all__ = ["ServeClosed", "ServeEngine", "ServeOutcome"]

#: Builds a :class:`ServeOutcome` from one ``(record, scheduler)`` tuple
#: without the keyword constructor.
_new_outcome = tuple.__new__


class ServeClosed(RuntimeError):
    """The engine has drained; no further requests are accepted."""


class ServeOutcome(NamedTuple):
    """The scheduling outcome of one served request.

    Wraps the simulator's :class:`~repro.cluster.telemetry.InvocationRecord`
    together with the scheduler key that made the decision (the engine's
    scheduler can be hot-swapped between requests, so the key is captured
    per outcome).  A named tuple, like the record: immutable, compared
    field by field, and built by :meth:`ServeEngine.submit` in one C call.
    """

    record: InvocationRecord
    scheduler: str

    @property
    def exec_time_s(self) -> float:
        """The execution time that was scheduled."""
        return self.record.execution_time_s

    @property
    def service_time_s(self) -> float:
        """Startup latency plus execution time (the request's service time)."""
        return self.record.startup_latency_s + self.exec_time_s

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable response payload for the HTTP plane."""
        r = self.record
        return {
            "invocation_id": r.invocation_id,
            "function": r.function_name,
            "arrival_t": r.arrival_time,
            "cold_start": r.cold_start,
            "match": r.match.name,
            "container_id": r.container_id,
            "worker_id": r.worker_id,
            "startup_latency_s": r.startup_latency_s,
            "queue_delay_s": r.queue_delay_s,
            "exec_time_s": self.exec_time_s,
            "service_time_s": self.service_time_s,
            "scheduler": self.scheduler,
        }


class ServeEngine:
    """Schedules online requests through the deterministic simulator core.

    Parameters
    ----------
    config:
        Cluster configuration, exactly as for offline simulation.  Use
        ``bounded_telemetry=True`` for long-running servers (O(1) metric
        state) and ``verify=True`` to run the invariant monitors live
        (surfaced through :meth:`health` / the ``/healthz`` endpoint).
    scheduler:
        Registry key into
        :data:`repro.experiments.parallel.SCHEDULER_FACTORIES` (keys are a
        stable wire format, so recordings can rebuild the scheduler), or a
        ready :class:`~repro.schedulers.base.Scheduler` instance -- the
        path that puts a trained MLCR policy (optionally serving from a
        distilled surrogate) behind ``/invoke``.  Instances cannot be
        combined with a recorder: replay rebuilds schedulers from registry
        keys, which an ad-hoc instance does not have.
    wall:
        The wall :class:`~repro.cluster.eventloop.TimeSource` used to stamp
        arrivals; defaults to a fresh
        :class:`~repro.cluster.eventloop.WallClock` (server start = t0).
        Tests and the replay oracle inject scripted clocks here.
    keepalive_ttl_s:
        Scale-to-zero keep-alive TTL: overrides the eviction policy's
        ``ttl_s`` so idle warm containers are destroyed (by the janitor's
        sweeps) once idle longer than this.  ``None`` keeps the policy's
        own TTL (which for plain LRU means no expiry, i.e. no
        scale-to-zero).
    recorder:
        Optional :class:`~repro.serve.recorder.DecisionRecorder`; every
        decision and scheduler swap is appended to it so the session can be
        replayed and verified offline.
    """

    def __init__(
        self,
        config: SimulationConfig,
        scheduler: Union[str, "Scheduler"] = "lru",
        *,
        wall: Optional[TimeSource] = None,
        keepalive_ttl_s: Optional[float] = None,
        recorder=None,
    ) -> None:
        if isinstance(scheduler, str):
            self.scheduler_key = scheduler
            self.scheduler = build_scheduler(scheduler)
        else:
            if recorder is not None:
                raise ValueError(
                    "a scheduler instance cannot be recorded: replay "
                    "rebuilds schedulers from registry keys; pass a key "
                    "or drop the recorder"
                )
            self.scheduler = scheduler
            self.scheduler_key = getattr(scheduler, "name", "custom")
        self.sim = ClusterSimulator(
            config, self.scheduler.make_eviction_policy()
        )
        if keepalive_ttl_s is not None:
            if keepalive_ttl_s <= 0:
                raise ValueError("keepalive_ttl_s must be positive")
            # Instance attribute shadows the policy class's ttl_s.
            self.sim.eviction.ttl_s = keepalive_ttl_s
        self.keepalive_ttl_s = self.sim.eviction.ttl_s
        self.wall: TimeSource = wall if wall is not None else WallClock()
        self.recorder = recorder
        self.submitted = 0
        self.swaps = 0
        self._next_invocation_id = 0
        self._last_t = 0.0
        self._closed = False
        self.sim._workload_name = "serve"
        if recorder is not None:
            recorder.write_header(self)

    # -- request path --------------------------------------------------------
    def submit(
        self,
        function: Union[str, int, FunctionSpec],
        exec_time_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> ServeOutcome:
        """Stamp, schedule and apply one request; returns its outcome.

        ``function`` is a Table-II function name, FuncID or spec;
        ``exec_time_s`` defaults to the spec's mean execution time (a
        deterministic default, so the recorded log fully determines the
        replay).  ``now`` overrides the wall reading for tests and replay;
        either way the stamp is clamped monotone.  The whole call is
        synchronous and never yields, which is what serializes concurrent
        asyncio handlers into a valid arrival stream.
        """
        if self._closed:
            raise ServeClosed("engine drained; no further requests accepted")
        spec = self._resolve(function)
        t = self._stamp(self.wall.now if now is None else now)
        exec_s = (
            float(exec_time_s) if exec_time_s is not None
            else spec.exec_time_mean_s
        )
        invocation = Invocation(
            invocation_id=self._next_invocation_id,
            spec=spec,
            arrival_time=t,
            execution_time_s=exec_s,
        )
        self._next_invocation_id += 1
        self.sim.offer(invocation)
        ctx = self.sim.next_decision_point()
        record = self.sim.apply_decision(
            self.scheduler.decide(ctx.pool, ctx.invocation, ctx.cost_model)
        )
        self.submitted += 1
        if self.recorder is not None:
            self.recorder.on_decision(record)
        return _new_outcome(ServeOutcome, (record, self.scheduler_key))

    def pump(self, now: Optional[float] = None) -> int:
        """Process due completions and TTL-sweep up to the wall reading.

        The janitor's tick: applies every completion whose scheduled time
        has passed and expires idle containers, which is what makes
        scale-to-zero happen during quiet periods.  Returns the number of
        events processed; a no-op on a drained engine.
        """
        if self._closed:
            return 0
        t = self._stamp(self.wall.now if now is None else now)
        return self.sim.pump_until(t)

    def swap_scheduler(self, key: str) -> str:
        """Hot-swap the decision policy; returns the previous key.

        The eviction policy (and the warm pool it manages) is part of the
        cluster, not the scheduler, so it is intentionally *not* swapped --
        only the cold/warm decision logic changes.  The swap is recorded so
        replay switches policies at the same point in the request sequence.
        """
        scheduler = build_scheduler(key)  # raises KeyError on unknown keys
        old = self.scheduler_key
        self.scheduler = scheduler
        self.scheduler_key = key
        self.swaps += 1
        if self.recorder is not None:
            self.recorder.on_swap(key, self._last_t)
        return old

    def drain(self) -> SimulationResult:
        """Finish the session: run out all in-flight events and close.

        After drain the engine rejects further submits (:class:`ServeClosed`)
        and the recorder (if any) is closed.  Returns the simulator's
        :class:`~repro.cluster.simulator.SimulationResult`, whose telemetry
        summary covers the whole serving session.
        """
        if self._closed:
            raise ServeClosed("engine already drained")
        self._closed = True
        self.sim._fold_scheduler_counters(self.scheduler)
        result = self.sim.finish(scheduler_name=self.scheduler_key)
        if self.recorder is not None:
            self.recorder.close()
        return result

    # -- introspection -------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`drain` has run."""
        return self._closed

    @property
    def sim_inflight(self) -> int:
        """Requests still starting or executing inside the simulator.

        Every submitted request holds exactly one outstanding completion
        event until it finishes, and a request is decided as it is
        submitted, so the event-queue length is the in-flight count.
        """
        return len(self.sim.loop)

    @property
    def live_containers(self) -> int:
        """Containers currently alive (pooled, starting or executing)."""
        return (
            self.sim.lifecycle.created_count
            - self.sim.lifecycle.destroyed_count
        )

    @property
    def pooled_containers(self) -> int:
        """Idle containers currently sitting in the warm pool."""
        return len(self.sim.pool)

    def health(self) -> Dict[str, object]:
        """Run the live invariant monitors and report engine health.

        With ``SimulationConfig(verify=True)`` this executes a full
        monitor checkpoint on demand (the same six invariants the offline
        harness asserts per event) and reports the first violation, if
        any.  Without verification it reports healthy with
        ``verified=False``.
        """
        report: Dict[str, object] = {
            "healthy": True,
            "verified": self.sim.verifier is not None,
            "draining": self._closed,
            "submitted": self.submitted,
            "inflight": self.sim_inflight,
            "live_containers": self.live_containers,
            "pooled_containers": self.pooled_containers,
        }
        if getattr(self.scheduler, "surrogate", None) is not None:
            report["surrogate"] = {
                "fallbacks": self.scheduler.surrogate_fallbacks,
                "audits": self.scheduler.surrogate_audits,
                "disagreements": self.scheduler.surrogate_disagreements,
            }
        if self.sim.verifier is not None:
            report.update(self.sim.verifier.health_report())
        return report

    # -- internals -----------------------------------------------------------
    def _resolve(self, function: Union[str, int, FunctionSpec]) -> FunctionSpec:
        """Resolve a request's function reference to a spec."""
        if isinstance(function, FunctionSpec):
            return function
        if isinstance(function, int):
            return function_by_id(function)
        return function_by_name(function)

    def _stamp(self, t: float) -> float:
        """Clamp a wall reading into a valid (monotone, non-past) stamp."""
        if t < self._last_t:
            t = self._last_t
        if t < self.sim.loop.now:
            t = self.sim.loop.now
        self._last_t = t
        return t
