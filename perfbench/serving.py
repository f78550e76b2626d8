"""The ``serve-http`` workload: the online plane under open-loop HTTP load.

A :class:`~repro.serve.server.ServePlane` over
``ServeEngine(SimulationConfig(n_workers=4, worker_concurrency=16,
bounded_telemetry=True), "greedy", keepalive_ttl_s=SERVE_TTL_S)`` with
``time_scale=0`` runs in a benchmark-owned subprocess
(``serve_launcher.py``).  A single-process asyncio generator
(:mod:`loadgen`) drives it with a seeded Poisson open-loop schedule,
Zipf-weighted over the 13 Table-II functions, with at most ``nproc``
connections in flight; each request is timed from its due time.

*Why:* it runs the same sequential engine one arrival at a time, alongside
router, admission, janitor and stats.  Its pools are small (13 functions,
capacity equal to their summed image memory), and it has no lanes and no
lowering.

Where the traffic parameters come from:

* :data:`BASE_RATE` is a third of the plane's measured capacity.  The
  ladder below, run on the unchanged program (2-vCPU x86 host, generator
  and server on the same host, 2-second rungs every 100 req/s, seeds 1-8),
  sustained 600 req/s on seven of eight seeds (800 on one, 500 failed once
  on a tail outlier) within :data:`LATENCY_LIMIT_MS`.  At a third of that
  the plane is busy on every request but not queueing, so the base phase
  measures service, not saturation.
* :data:`LADDER` steps by the base rate from 2x to 6x, bracketing the
  measured 600 req/s with room for a 2x faster plane.
* Function popularity uses the Zipf exponent of the repository's Azure
  trace generator (:data:`loadgen.ZIPF_S`).
* :data:`SERVE_TTL_S` is set so that at the base rate the least popular
  function finds its container expired on about one arrival in ten
  (``P(gap > ttl) = 0.1`` for its Poisson arrivals); the janitor's
  TTL sweeps then destroy containers and the engine pays real cold
  starts, instead of a TTL so long nothing ever expires.
* :data:`REFERENCE_REQUESTS` submits per reference pass put the
  reported tail (highest percentile with ten samples beyond it) at p99.
* :data:`LATENCY_LIMIT_MS` is the 20 ms p99 the benchmark's definition
  proposes for ``serve_max_rps``.

Phases of one run: ``setup_s`` launches (process start until ``/healthz``
answers, median of several); on the last of them a warm-up and the base
phase at :data:`BASE_RATE` in :data:`SUBPHASES` sub-phases (requests per
server CPU second, and the server's peak RSS, are gated; HTTP latency from
the due time is printed as the median over sub-phases); on a fresh server
a fixed rate ladder (highest rate whose tail stays within
:data:`LATENCY_LIMIT_MS` with no failure and no growing generator lag,
printed).  Each server is drained and must have served exactly the
successful requests.  Last, the reference leg: a seeded schedule of
about :data:`REFERENCE_REQUESTS` requests at the base rate submitted
in-process to a fresh engine on a virtual clock; its decisions per host
second and the host time of each ``submit`` (``p50_ms`` / ``tail_ms``) are gated and
its summary is deterministic and digested.

HTTP round trips on a shared host stall with other tenants' load (their
median drifted by ~20 % and their tail by ~30 % between runs minutes
apart, well past any useful regression bound), so the gated latencies are
the engine's own per-decision host times; the HTTP figures stay in the
printed report.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import loadgen
from hostspeed import NOMINAL_S, HostSpeed
from workloads import Checks, Legs, summary_digest

from repro.cluster.eventloop import VirtualClock
from repro.cluster.simulator import SimulationConfig
from repro.serve.client import http_json
from repro.workloads.functions import fstartbench_functions

SERVE_SCHEDULER = "greedy"
JANITOR_INTERVAL_S = 0.05
#: Requests per second of the base phase: a third of the 600 req/s the
#: plane sustained on the unchanged program (see the module docstring).
BASE_RATE = 200.0
LADDER = tuple(BASE_RATE * k for k in (2, 3, 4, 5, 6))
LATENCY_LIMIT_MS = 20.0
#: Keep-alive TTL at which the least popular function's container has
#: expired on one in ten of its base-rate arrivals.
_WEIGHTS = loadgen.zipf_weights(len(fstartbench_functions()))
SERVE_TTL_S = math.log(10.0) / (BASE_RATE * _WEIGHTS[-1] / sum(_WEIGHTS))
WARMUP_S = 1.0
SUBPHASES = 10
REFERENCE_REQUESTS = 1000
REFERENCE_S = REFERENCE_REQUESTS / BASE_RATE
SETUP_LAUNCHES = 3
LAUNCH_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 5.0

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


def serve_config() -> SimulationConfig:
    """The plane's cluster: 4 workers x 16 slots, bounded telemetry, a
    pool the size of the summed image memory of the Table-II functions."""
    total = sum(f.image.memory_mb for f in fstartbench_functions())
    return SimulationConfig(
        pool_capacity_mb=total,
        n_workers=4,
        worker_concurrency=16,
        bounded_telemetry=True,
    )


def function_names() -> List[str]:
    return [f.name for f in fstartbench_functions()]


class Server:
    """One launcher subprocess."""

    def __init__(self, trace: bool = False) -> None:
        args = [sys.executable, str(LAUNCHER)] + (["--trace"] if trace else [])
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            cwd=str(LAUNCHER.parent.parent),
        )
        self.port = self._read_port()
        self.ready_s = self._wait_healthy() - self.spawned

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    LAUNCH_TIMEOUT_S)
        if not ready:
            self.kill()
            raise RuntimeError("serve launcher did not report its port")
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("serve launcher exited before binding")
        return int(json.loads(line)["port"])

    def request(self, method: str, path: str, payload=None):
        return asyncio.run(http_json("127.0.0.1", self.port, method, path,
                                     payload, timeout_s=REQUEST_TIMEOUT_S))

    def _wait_healthy(self) -> float:
        deadline = time.perf_counter() + LAUNCH_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.request("GET", "/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter()
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("serving plane never became healthy")

    def cpu_s(self) -> tuple:
        """The server's CPU seconds and its host-speed sample."""
        body = self.request("GET", "/perfbench/cpu")[1]
        return float(body["cpu_s"]), float(body["calib_s"])

    def stop(self) -> Dict[str, object]:
        """Graceful stop; returns the launcher's final report."""
        try:
            self.request("POST", "/perfbench/stop")
            out, _ = self.proc.communicate(timeout=LAUNCH_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
            self.kill()
            raise
        lines = [ln for ln in out.decode().splitlines() if ln.strip()]
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _well_formed(status: int, body: Dict[str, object], function: str) -> bool:
    return (
        status == 200
        and body.get("function") == function
        and isinstance(body.get("invocation_id"), int)
        and isinstance(body.get("startup_latency_s"), float)
        and body.get("scheduler") == SERVE_SCHEDULER
    )


def run_phase(server: Server, schedule) -> List[loadgen.Outcome]:
    """Drive one open-loop phase against ``server``."""

    async def send(function: str) -> bool:
        status, body = await http_json(
            "127.0.0.1", server.port, "POST", "/invoke",
            {"function": function}, timeout_s=REQUEST_TIMEOUT_S,
        )
        return _well_formed(status, body, function)

    return asyncio.run(
        loadgen.drive(schedule, send, max_inflight=os.cpu_count() or 1)
    )


def reference_pass(schedule, legs: Legs,
                   speed: HostSpeed) -> Dict[str, float]:
    """``schedule`` submitted in-process to a fresh engine on a virtual
    clock; every ``submit`` is one timed operation.

    Janitor ticks are replayed every :data:`JANITOR_INTERVAL_S` of virtual
    time, as the plane's janitor would run them; the result is a pure
    function of the schedule.
    """
    from repro.serve.engine import ServeEngine

    clock = VirtualClock()
    submit_s = []
    start = time.perf_counter()
    engine = ServeEngine(serve_config(), SERVE_SCHEDULER, wall=clock,
                         keepalive_ttl_s=SERVE_TTL_S)
    next_tick = JANITOR_INTERVAL_S
    for offset, function in schedule:
        while next_tick <= offset:
            clock.advance_to(next_tick)
            engine.pump()
            next_tick += JANITOR_INTERVAL_S
        clock.advance_to(offset)
        begin = time.perf_counter()
        engine.submit(function)
        submit_s.append(time.perf_counter() - begin)
    summary = engine.drain().summary()
    seconds = time.perf_counter() - start
    speed.tick()
    factor = speed.factor()
    legs.add("reference", "pass", seconds, len(schedule), factor)
    for i, op_s in enumerate(submit_s):
        legs.add("op", i, op_s, 1.0, factor)
    return summary


class ServeWorkload:
    """Orchestrates launches, load phases and the reference leg."""

    name = "serve-http"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference_summary: Optional[Dict[str, float]] = None
        self.setup_samples: List[float] = []
        self.rss_mb = 0.0

    def schedule(self, phase: int, rate: float, seconds: float):
        return loadgen.poisson_schedule(
            rate, seconds, seed=self.seed * 1000 + phase,
            functions=function_names(),
        )

    def launch(self) -> Server:
        """Launch :data:`SETUP_LAUNCHES` servers, keep the last running."""
        speed = HostSpeed()
        for i in range(SETUP_LAUNCHES):
            speed.tick()
            server = Server()
            speed.tick()
            self.setup_samples.append(server.ready_s * speed.factor())
            if i < SETUP_LAUNCHES - 1:
                server.stop()
        return server

    def base(self, server: Server, seconds: float, legs: Legs,
             checks: Checks) -> Dict[str, object]:
        """Warm-up and the base phase against ``server``, then its drain.

        The base phase runs as :data:`SUBPHASES` consecutive open-loop
        sub-phases with host-speed samples (client and server side)
        between them.  Each records the server's CPU seconds per request
        (a repetition of ``main``) and its request latencies, whose
        medians over sub-phases are printed; returns the launcher's final
        report.
        """
        outcomes: List[loadgen.Outcome] = []
        client = HostSpeed()
        http_p50: List[float] = []
        http_tail: List[float] = []
        try:
            outcomes += run_phase(server,
                                  self.schedule(0, BASE_RATE, WARMUP_S))
            for j in range(SUBPHASES):
                client.tick()
                cpu0, calib0 = server.cpu_s()
                phase = run_phase(server, self.schedule(
                    10 + j, BASE_RATE, seconds / SUBPHASES))
                cpu1, calib1 = server.cpu_s()
                client.tick()
                legs.add("main", "base", (cpu1 - cpu0) / len(phase), 1.0,
                         NOMINAL_S / (0.5 * (calib0 + calib1)))
                stats = loadgen.PhaseStats.of(phase)
                factor = client.factor()
                http_p50.append(stats.p50_ms * factor)
                http_tail.append(stats.tail_ms * factor)
                legs.info[f"late_tail_ms_{j}"] = stats.late_tail_ms
                outcomes += phase
        except BaseException:
            server.kill()
            raise
        legs.info["http_p50_ms"] = statistics.median(http_p50)
        legs.info["http_tail_ms"] = statistics.median(http_tail)
        legs.info["http_tail_percentile"] = stats.tail_p
        return self._drain(server, outcomes, checks)

    def ladder(self, server: Server, seconds: float, legs: Legs,
               checks: Checks) -> None:
        """The fixed rate ladder against ``server``, then its drain."""
        outcomes: List[loadgen.Outcome] = []
        best = 0.0
        try:
            for i, rate in enumerate(LADDER):
                rung = run_phase(
                    server, self.schedule(2 + i, rate, seconds / len(LADDER))
                )
                outcomes.extend(rung)
                stats = loadgen.PhaseStats.of(rung)
                legs.info[f"rung_{int(rate)}_tail_ms"] = stats.tail_ms
                if not stats.meets(LATENCY_LIMIT_MS):
                    break
                best = rate
        except BaseException:
            server.kill()
            raise
        legs.info["serve_max_rps"] = best
        self._drain(server, outcomes, checks)

    @staticmethod
    def _drain(server: Server, outcomes, checks: Checks) -> Dict[str, object]:
        """Stop ``server``; check every response and the served count."""
        report = server.stop()
        for o in outcomes:
            checks.check(o.ok, "request failed or malformed")
        checks.check(
            report["summary"]["invocations"] == sum(o.ok for o in outcomes),
            "drained engine invocations != successful requests",
        )
        return report

    def measure(self, seconds: float, legs: Legs, checks: Checks) -> None:
        """Base phase on the last set-up server (whose peak RSS is
        reported), the ladder on a fresh one, then the reference leg."""
        report = self.base(self.launch(), 0.5 * seconds, legs, checks)
        self.rss_mb = float(report["rss_mb"])
        self.ladder(Server(), 0.2 * seconds, legs, checks)
        self.reference_leg(max(0.2 * seconds, 1.0), legs, checks)

    def reference_leg(self, seconds: float, legs: Legs,
                      checks: Checks) -> None:
        """Repeat the in-process reference pass for ``seconds``."""
        schedule = self.schedule(1, BASE_RATE, REFERENCE_S)
        deadline = time.perf_counter() + seconds
        speed = HostSpeed()
        speed.tick()
        while True:
            summary = reference_pass(schedule, legs, speed)
            if self.reference_summary is None:
                self.reference_summary = summary
            else:
                checks.check(summary == self.reference_summary,
                             "reference engine not deterministic")
            if time.perf_counter() >= deadline:
                break

    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    def digest(self) -> str:
        if self.reference_summary is None:
            speed = HostSpeed()
            speed.tick()
            self.reference_summary = reference_pass(
                self.schedule(1, BASE_RATE, REFERENCE_S), Legs(), speed
            )
        return summary_digest([self.reference_summary])
