"""Offline workloads: FStartBench grids and the Azure-like stream.

Each workload builds its inputs from the benchmark seed, runs timed *legs*
through the program's public entry points, and checks the simulated
outputs.  Host time is measured; simulated statistics are only checked
for identity (lane summaries equal sequential ones, passes equal each
other, warm-cache cells equal fresh ones, and digests equal the stored
ones where ``digests.json`` has the seed).

``grid-closed`` / ``grid-scripted``
    The scheduler registry split by decision path -- the seven closed-form
    keys and the four scripted keys (FaasCache, Lookahead, MPC pre-warm,
    Pagurus lending) -- each over all eight FStartBench workloads at the
    Tight / Moderate / Loose pool sizes of ``default_grid``, one seed,
    single process.  This is what ``runall`` / ``repro simulate`` users
    run.  ``inv_per_s`` is ``run_grid(jobs=1, lanes=16)``, timed per lane
    batch: the grid's consecutive 16-cell slices, exactly the batches
    ``run_grid`` builds over the whole grid, each passed to ``run_grid``.
    The reference leg is ``evaluate_scheduler`` (``ClusterSimulator.run``)
    per cell.  The scripted grid is the only workload that runs
    ``decide``, ``SchedulingContext`` and the cost model on every lane
    arrival; the closed-form grid bypasses them on the lane path.  Pools
    are small (13 functions).
``azure-stream``
    An ``AzureTraceGenerator(trace_config(2000, 100_000))`` stream
    replayed through ``run_stream_lanes`` with the stream family's
    closed-form lanes (``lru``, ``keepalive``, ``greedy``), capacity from
    ``derive_capacity_mb`` (8 % of summed image memory) and bounded
    telemetry.  The working set is ~150x the grid's and pools are
    eviction-heavy; lowering and sketch folding run on every arrival and
    no scheduler ``decide`` runs on the lane path, so it is the bypass
    workload for decision-path changes.  The reference leg replays the
    ``greedy`` cell through ``ClusterSimulator.run_stream``; its blocks of
    1,000 arrivals are the operations of ``p50_ms`` / ``tail_ms``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from hostspeed import NOMINAL_S, HostSpeed
from loadgen import percentile, tail
from repro.cluster import lanes as lanes_mod
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments import parallel
from repro.experiments.cache import ExperimentCache
from repro.experiments.common import evaluate_scheduler
from repro.experiments.ext_stream_replay import (derive_capacity_mb,
                                                 trace_config)
from repro.workloads.azure import AzureTraceGenerator

CLOSED_KEYS: Tuple[str, ...] = (
    "lru", "keepalive", "greedy", "coldonly", "zygote", "walways", "offline",
)
SCRIPTED_KEYS: Tuple[str, ...] = ("faascache", "lookahead", "mpc", "lending")
FSTARTBENCH: Tuple[str, ...] = (
    "LO-Sim", "HI-Sim", "LO-Var", "HI-Var", "Uniform", "Peak", "Random",
    "Overall",
)
GRID_LANES = 16

STREAM_FUNCTIONS = 2000
STREAM_INVOCATIONS = 100_000
STREAM_KEYS: Tuple[str, ...] = ("lru", "keepalive", "greedy")
STREAM_REFERENCE_KEY = "greedy"
STREAM_CHUNK = 4096
#: Arrivals per timed operation of the stream's sequential leg.
STREAM_BLOCK = 1000


def summary_digest(rows: Sequence) -> str:
    """SHA-256 over canonical JSON of simulated outputs (floats exact)."""
    text = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Output-check tally feeding ``attempted`` / ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class Legs:
    """Host seconds of repeated work units, per leg.

    Every leg is split into units that each run once per round (a
    lane batch, a grid cell, a stream chunk, a sub-phase of requests).  Each
    repetition is stored raw and scaled by the host-speed factor measured
    around it (:mod:`hostspeed`).  A unit's cost is the median of its
    repetitions, and a leg's throughput is its total work over the sum of
    those costs; ``p50_ms`` / ``tail_ms`` are percentiles over the costs of
    the operations (``op``).
    """

    LEGS = ("main", "reference", "op")

    def __init__(self) -> None:
        self.times = {leg: {} for leg in self.LEGS}
        self.raw = {leg: {} for leg in self.LEGS}
        self.work = {leg: {} for leg in self.LEGS}
        self.info: Dict[str, float] = {}

    def add(self, leg: str, unit, seconds: float, work: float = 1.0,
            factor: float = 1.0) -> None:
        self.times[leg].setdefault(unit, []).append(seconds * factor)
        self.raw[leg].setdefault(unit, []).append(seconds)
        self.work[leg][unit] = work

    def rate(self, leg: str, raw: bool = False) -> float:
        """Work per second of the leg's median (scaled) repetitions."""
        times = (self.raw if raw else self.times)[leg]
        return sum(self.work[leg].values()) / sum(
            statistics.median(t) for t in times.values())

    def op_stats(self, raw: bool = False) -> Tuple[float, float, float, int]:
        """``(p50_ms, tail percentile, tail_ms, operations)``."""
        ms = [statistics.median(t) * 1e3 for t in
              (self.raw if raw else self.times)["op"].values()]
        tail_p, tail_ms = tail(ms)
        return percentile(ms, 50.0), tail_p, tail_ms, len(ms)

    def rounds(self, leg: str) -> int:
        return max((len(t) for t in self.times[leg].values()), default=0)


def repeat_for(seconds: float, one_round) -> None:
    """Run ``one_round`` as many times as fit in about ``seconds``.

    The round count is fixed from the first round's duration, so a run
    lasts close to ``seconds`` instead of overshooting by a whole round.
    """
    start = time.perf_counter()
    one_round()
    rounds = max(1, round(seconds / (time.perf_counter() - start)))
    for _ in range(rounds - 1):
        one_round()


def _cell_row(cell) -> list:
    task = cell.task
    return [task.scheduler, task.workload, task.seed, task.pool_label,
            task.capacity_mb, cell.method, cell.summary]


class GridWorkload:
    """One FStartBench grid over a set of registry keys."""

    def __init__(self, name: str, keys: Sequence[str], seed: int) -> None:
        self.name = name
        self.keys = tuple(keys)
        self.seed = seed
        self.tasks: List[parallel.GridTask] = []
        self.fresh = None
        self.speed = HostSpeed()

    def setup(self) -> None:
        """Workload synthesis, pool sizing, lowering and memo warm-up.

        The Offline-Q bootstrap rollout memoizes on each lowered table, so
        its cells run once here and every timed pass starts warm.
        """
        self.tasks = parallel.default_grid(
            workloads=FSTARTBENCH, schedulers=self.keys, seeds=[self.seed]
        )
        for workload in FSTARTBENCH:
            parallel.cached_arrival_table(workload, self.seed)
        offline = [t for t in self.tasks if t.scheduler == "offline"]
        if offline:
            parallel.run_grid(offline, jobs=1, lanes=GRID_LANES)

    def lanes_pass(self, legs: Legs, checks: Checks) -> None:
        """The grid through ``run_grid(jobs=1, lanes=16)``, one lane batch
        at a time: ``run_grid`` over the whole grid runs these same
        consecutive 16-cell slices as its kernels."""
        cells = []
        for first in range(0, len(self.tasks), GRID_LANES):
            batch = self.tasks[first:first + GRID_LANES]
            start = time.perf_counter()
            unit_cells = parallel.run_grid(batch, jobs=1, lanes=GRID_LANES)
            seconds = time.perf_counter() - start
            self.speed.tick()
            legs.add("main", first, seconds,
                     sum(c.summary["invocations"] for c in unit_cells),
                     self.speed.factor())
            cells.extend(unit_cells)
        if self.fresh is None:
            self.fresh = cells
        else:
            for cell, first in zip(cells, self.fresh):
                checks.check(cell == first, f"lane pass differs: {cell.task}")

    def sequential_pass(self, legs: Legs, checks: Checks) -> None:
        """Every cell through ``ClusterSimulator.run``; each cell is also
        one operation of ``p50_ms`` / ``tail_ms``."""
        for task, cell in zip(self.tasks, self.fresh):
            start = time.perf_counter()
            summary = sequential_summary(task)
            seconds = time.perf_counter() - start
            self.speed.tick()
            factor = self.speed.factor()
            legs.add("reference", task, seconds, summary["invocations"],
                     factor)
            legs.add("op", task, seconds, 1.0, factor)
            checks.check(summary == cell.summary,
                         f"sequential != lanes: {task}")

    def measure(self, seconds: float, legs: Legs, checks: Checks) -> None:
        self.speed.tick()
        repeat_for(seconds, lambda: (self.lanes_pass(legs, checks),
                                     self.sequential_pass(legs, checks)))

    def cache_leg(self, scratch: Path, legs: Legs, checks: Checks) -> None:
        """Warm-cache throughput: cells a cold pass wrote, served back.

        The cold pass stores the fresh lane cells through
        ``ExperimentCache.put_cell`` (what ``run_grid`` does on a miss);
        the warm pass is ``run_grid`` answering every cell from disk.
        """
        root = scratch / f"cache-{self.name}"
        shutil.rmtree(root, ignore_errors=True)
        try:
            cache = ExperimentCache(root=root, enabled=True)
            start = time.perf_counter()
            for cell in self.fresh:
                cache.put_cell(cell)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            warm = parallel.run_grid(self.tasks, jobs=1, cache=cache,
                                     lanes=GRID_LANES)
            warm_s = time.perf_counter() - start
            checks.check(cache.hits == len(self.tasks), "warm pass missed")
            for cell, first in zip(warm, self.fresh):
                checks.check(cell == first, f"cached != fresh: {cell.task}")
            legs.info["cache_cold_write_s"] = cold_s
            legs.info["warm_cache_cells_per_s"] = len(self.tasks) / warm_s
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def one_pass(self, scratch: Path, legs: Legs, checks: Checks) -> None:
        """Every leg once (the traced run's unit of work)."""
        self.speed.tick()
        self.lanes_pass(legs, checks)
        self.sequential_pass(legs, checks)
        self.cache_leg(scratch, legs, checks)

    def digest(self) -> str:
        return summary_digest(_cell_row(c) for c in self.fresh)


def sequential_summary(task: "parallel.GridTask") -> Dict[str, float]:
    """One grid cell on the sequential engine through the public
    ``evaluate_scheduler`` (``ClusterSimulator.run``)."""
    return evaluate_scheduler(
        parallel.build_scheduler(task.scheduler),
        parallel.cached_workload(task.workload, task.seed),
        task.capacity_mb,
    ).result.summary()


class _ChunkClock:
    """Pass-through arrival stream timing each chunk of arrivals.

    ``run_stream_lanes`` pulls one chunk, lowers and replays it, then
    pulls the next; ``run_stream`` pulls one arrival per decision.  Either
    way the time between two chunk boundaries is the host time one chunk
    of arrivals takes end to end (generation included).  A host-speed
    sample is taken at each boundary, outside the timed intervals, so each
    chunk is scaled by the speed measured right around it.
    """

    def __init__(self, stream, chunk: int, speed: HostSpeed) -> None:
        self.stream = stream
        self.name = getattr(stream, "name", "<stream>")
        self.chunk = chunk
        self.speed = speed
        self.intervals: List[float] = []
        self._start = None

    def _boundary(self) -> None:
        end = time.perf_counter()
        if self._start is not None:
            self.intervals.append(end - self._start)
        self.speed.tick()
        self._start = time.perf_counter()

    def __iter__(self):
        chunk = self.chunk
        self._boundary()
        for i, invocation in enumerate(self.stream, 1):
            yield invocation
            if i % chunk == 0:
                self._boundary()

    def record(self, legs: Legs, leg: str, lanes: int) -> None:
        """Close the last interval and add one unit per chunk, scaled by
        the host-speed samples on either side of it."""
        self._boundary()
        samples = self.speed.samples[-len(self.intervals) - 1:]
        for k, seconds in enumerate(self.intervals):
            arrivals = min(self.chunk, STREAM_INVOCATIONS - k * self.chunk)
            factor = NOMINAL_S / (0.5 * (samples[k] + samples[k + 1]))
            legs.add(leg, k, seconds, lanes * arrivals, factor)
            if leg == "reference" and arrivals > 0:
                legs.add("op", k, seconds, 1.0, factor)


class StreamWorkload:
    """The Azure-like stream through bounded closed-form lanes."""

    name = "azure-stream"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.stream = None
        self.capacity_mb = 0.0
        self.fresh = None
        self.speed = HostSpeed()

    def setup(self) -> None:
        """Generator, stream (function population) and capacity."""
        generator = AzureTraceGenerator(
            trace_config(STREAM_FUNCTIONS, STREAM_INVOCATIONS)
        )
        self.stream = generator.stream(seed=self.seed)
        self.capacity_mb = derive_capacity_mb(self.stream)

    def lanes_pass(self, legs: Legs, checks: Checks, stream=None) -> None:
        clocked = _ChunkClock(stream or self.stream, STREAM_CHUNK,
                              self.speed)
        results = lanes_mod.run_stream_lanes(
            [(key, self.capacity_mb) for key in STREAM_KEYS], clocked,
            chunk_size=STREAM_CHUNK,
        )
        clocked.record(legs, "main", len(STREAM_KEYS))
        checks.check(
            all(r.summary["invocations"] == STREAM_INVOCATIONS
                for r in results),
            "stream lane lost arrivals",
        )
        if self.fresh is None:
            self.fresh = results
        else:
            for result, first in zip(results, self.fresh):
                checks.check(result == first, f"lane pass differs: {first}")

    def reference_pass(self, legs: Legs, checks: Checks, stream=None) -> None:
        scheduler = parallel.build_scheduler(STREAM_REFERENCE_KEY)
        eviction = (
            scheduler.make_eviction_policy()
            if hasattr(scheduler, "make_eviction_policy") else None
        )
        clocked = _ChunkClock(stream or self.stream, STREAM_BLOCK,
                              self.speed)
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=self.capacity_mb,
                             bounded_telemetry=True),
            eviction,
        )
        summary = sim.run_stream(clocked, scheduler).summary()
        clocked.record(legs, "reference", 1)
        lane = self.fresh[STREAM_KEYS.index(STREAM_REFERENCE_KEY)]
        checks.check(summary == lane.summary, "run_stream != stream lane")

    def measure(self, seconds: float, legs: Legs, checks: Checks) -> None:
        repeat_for(seconds, lambda: (self.lanes_pass(legs, checks),
                                     self.reference_pass(legs, checks)))

    def one_pass(self, scratch: Path, legs: Legs, checks: Checks,
                 stream=None) -> None:
        self.lanes_pass(legs, checks, stream)
        self.reference_pass(legs, checks, stream)

    def digest(self) -> str:
        return summary_digest(
            [key, r.method, r.summary] for key, r in zip(STREAM_KEYS,
                                                          self.fresh)
        )
