"""Golden-trace record / replay / diff for the cluster simulator.

A *trace* is the complete decision-level behaviour of one simulated run:
one compact JSON line per invocation (container chosen, match level,
latency, queueing, worker), preceded by a versioned header that names the
``(workload, scheduler, seed, pool)`` cell it was recorded from.  Because
the simulator is deterministic, re-recording from the header must
reproduce the trace **bit-identically** -- floats are serialized with
Python's shortest-round-trip ``repr`` so equality really is bitwise.

Checked-in golden traces (``tests/golden_traces/``, regenerated with
:func:`record_golden_traces`) turn any behavioural drift into a
structured :class:`TraceDivergence` -- the exact first event and field
that changed -- instead of a summary-level mismatch.  The ``repro trace
record|replay|diff`` CLI exposes the same primitives.

Format (version 1)
------------------
Line 0 is the header object::

    {"version": 1, "workload": "LO-Sim", "scheduler": "lru", "seed": 0,
     "pool": "Tight", "capacity_mb": 1234.5, "n_events": 300}

Each following line is one invocation in arrival order::

    {"i": 0, "inv": 1, "fn": "f3", "t": 0.81, "cold": true, "cid": 1,
     "m": 0, "lat": 3.07, "q": 0.0, "w": 0, "exec": 1.2}

with ``m`` the Table-I match level as an int and ``lat`` the startup
latency (queueing included; ``q`` is the queueing component alone).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.cluster.telemetry import InvocationRecord
from repro.containers.matching import MatchLevel
from repro.experiments.common import pool_sizes
from repro.experiments.parallel import build_scheduler
from repro.workloads.fstartbench import build_workload

#: Version stamp written into every trace header; bump on any change to
#: the line schema or field semantics.
TRACE_FORMAT_VERSION = 1

#: The checked-in golden matrix: small, fast cells covering both a
#: similarity extreme and a bursty arrival pattern across eight scheduler
#: families (exact-match LRU, multi-level greedy, fixed keep-alive, the
#: proactive MPC pre-warm / Pagurus lending policies, whose lend and
#: pre-warm side effects must replay byte-identically too, and the
#: covering-zygote, delta-cost adoption and offline-Q rules, which pick
#: differently from greedy on both workloads at the Tight pool), plus the
#: clairvoyant Lookahead rule, whose first-best tie-break depends on its
#: candidate order, FaasCache's greedy-dual eviction and the ColdOnly
#: floor -- every registry key.
GOLDEN_MATRIX: Tuple[Tuple[str, str], ...] = tuple(
    (workload, scheduler)
    for workload in ("LO-Sim", "Peak")
    for scheduler in (
        "lru", "greedy", "keepalive", "mpc", "lending",
        "zygote", "walways", "offline", "lookahead", "faascache",
        "coldonly",
    )
)


@dataclass(frozen=True)
class TraceSpec:
    """The (workload, scheduler, seed, pool) cell a trace is recorded from.

    ``verify`` additionally attaches the runtime invariant monitors during
    recording; it does not affect the recorded behaviour (and is therefore
    not part of the header).  ``stream`` records through
    :meth:`~repro.cluster.simulator.ClusterSimulator.run_stream` (the
    workload wrapped as a lazy stream) instead of batch ``run``; the two
    paths are decision-identical by design, so it too is excluded from the
    header -- a golden trace recorded either way replays against both.
    """

    workload: str
    scheduler: str
    seed: int = 0
    pool: str = "Tight"
    verify: bool = False
    stream: bool = False


@dataclass(frozen=True)
class TraceHeader:
    """Line 0 of a trace file: provenance plus the event count."""

    version: int
    workload: str
    scheduler: str
    seed: int
    pool: str
    capacity_mb: float
    n_events: int

    def spec(self, verify: bool = False) -> TraceSpec:
        """The recording spec this header was produced from."""
        return TraceSpec(
            workload=self.workload,
            scheduler=self.scheduler,
            seed=self.seed,
            pool=self.pool,
            verify=verify,
        )

    def to_json(self) -> str:
        """Serialize the header as one compact JSON object line."""
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(line: str) -> "TraceHeader":
        data = json.loads(line)
        header = TraceHeader(**data)
        if header.version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {header.version} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        return header


#: JSON key per :class:`TraceLine` field, in serialization order.
_LINE_KEYS = (
    ("index", "i"),
    ("invocation_id", "inv"),
    ("function", "fn"),
    ("arrival", "t"),
    ("cold", "cold"),
    ("container_id", "cid"),
    ("match", "m"),
    ("latency_s", "lat"),
    ("queue_s", "q"),
    ("worker", "w"),
    ("exec_s", "exec"),
)


@dataclass(frozen=True)
class TraceLine:
    """One scheduling decision/outcome, in arrival order."""

    index: int
    invocation_id: int
    function: str
    arrival: float
    cold: bool
    container_id: int
    match: int
    latency_s: float
    queue_s: float
    worker: int
    exec_s: float

    @staticmethod
    def from_record(index: int, record: InvocationRecord) -> "TraceLine":
        return TraceLine(
            index=index,
            invocation_id=record.invocation_id,
            function=record.function_name,
            arrival=record.arrival_time,
            cold=record.cold_start,
            container_id=record.container_id,
            match=int(record.match),
            latency_s=record.startup_latency_s,
            queue_s=record.queue_delay_s,
            worker=record.worker_id,
            exec_s=record.execution_time_s,
        )

    @property
    def match_level(self) -> MatchLevel:
        """The Table-I match level of the decision."""
        return MatchLevel(self.match)

    def to_json(self) -> str:
        """Serialize the line with the compact key set of the format spec."""
        data = {key: getattr(self, attr) for attr, key in _LINE_KEYS}
        return json.dumps(data)

    @staticmethod
    def from_json(line: str) -> "TraceLine":
        data = json.loads(line)
        return TraceLine(**{attr: data[key] for attr, key in _LINE_KEYS})


@dataclass(frozen=True)
class Trace:
    """A parsed trace: header plus every decision line."""

    header: TraceHeader
    lines: Tuple[TraceLine, ...]

    def to_jsonl(self) -> str:
        """Serialize to the on-disk JSONL form (trailing newline included)."""
        out = [self.header.to_json()]
        out.extend(line.to_json() for line in self.lines)
        return "\n".join(out) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "Trace":
        rows = [row for row in text.splitlines() if row.strip()]
        if not rows:
            raise ValueError("empty trace")
        header = TraceHeader.from_json(rows[0])
        lines = tuple(TraceLine.from_json(row) for row in rows[1:])
        if header.n_events != len(lines):
            raise ValueError(
                f"trace header promises {header.n_events} events, "
                f"file holds {len(lines)}"
            )
        return Trace(header=header, lines=lines)


@dataclass(frozen=True)
class TraceDivergence:
    """The first point where two traces disagree.

    ``index`` is the event index (``-1`` for a header-level divergence),
    ``field`` the differing :class:`TraceLine` / :class:`TraceHeader`
    attribute, and ``expected`` / ``actual`` the two values.
    """

    index: int
    field: str
    expected: object
    actual: object

    def __str__(self) -> str:
        where = "header" if self.index < 0 else f"event {self.index}"
        return (
            f"first divergence at {where}, field {self.field!r}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


# ---------------------------------------------------------------------------
# Record / replay
# ---------------------------------------------------------------------------

def _simulate(spec: TraceSpec) -> Tuple[float, SimulationResult]:
    """Run the spec's cell exactly as the experiment harness would."""
    workload = build_workload(spec.workload, seed=spec.seed)
    capacity = pool_sizes(workload)[spec.pool]
    scheduler = build_scheduler(spec.scheduler)
    scheduler.reset()
    if hasattr(scheduler, "observe_workload"):
        scheduler.observe_workload(workload)
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity, verify=spec.verify),
        scheduler.make_eviction_policy(),
    )
    if spec.stream:
        from repro.workloads.stream import stream_from_workload

        return capacity, sim.run_stream(
            stream_from_workload(workload), scheduler
        )
    return capacity, sim.run(workload, scheduler)


def record_trace(spec: TraceSpec) -> Trace:
    """Simulate the spec's cell and capture its full decision trace.

    Reads the telemetry's invocation columns directly
    (:meth:`~repro.cluster.telemetry.Telemetry.invocation_columns`), so no
    :class:`~repro.cluster.telemetry.InvocationRecord` objects are
    materialized on the recording path; the line values are identical to
    :meth:`TraceLine.from_record` over the row view.
    """
    capacity, result = _simulate(spec)
    cols = result.telemetry.invocation_columns()
    lines = tuple(
        TraceLine(
            index=i,
            invocation_id=inv,
            function=fn,
            arrival=arrival,
            cold=bool(cold),
            container_id=cid,
            match=match,
            latency_s=latency,
            queue_s=queue,
            worker=worker,
            exec_s=exec_s,
        )
        for i, (inv, fn, arrival, cold, cid, match, latency, queue, worker,
                exec_s)
        in enumerate(zip(
            cols.invocation_id, cols.function_name, cols.arrival_time,
            cols.cold_start, cols.container_id, cols.match,
            cols.startup_latency_s, cols.queue_delay_s, cols.worker_id,
            cols.execution_time_s,
        ))
    )
    return Trace(
        header=TraceHeader(
            version=TRACE_FORMAT_VERSION,
            workload=spec.workload,
            scheduler=spec.scheduler,
            seed=spec.seed,
            pool=spec.pool,
            capacity_mb=capacity,
            n_events=len(lines),
        ),
        lines=lines,
    )


def replay_trace(trace: Trace, verify: bool = False) -> Trace:
    """Re-record a trace from its own header (must match bit-identically)."""
    return record_trace(trace.header.spec(verify=verify))


def diff_traces(expected: Trace, actual: Trace) -> Optional[TraceDivergence]:
    """First divergence between two traces, or ``None`` when identical."""
    for field_name in ("version", "workload", "scheduler", "seed", "pool",
                       "capacity_mb", "n_events"):
        want = getattr(expected.header, field_name)
        got = getattr(actual.header, field_name)
        if want != got:
            return TraceDivergence(-1, field_name, want, got)
    for index, (want_line, got_line) in enumerate(
        zip(expected.lines, actual.lines)
    ):
        for attr, _ in _LINE_KEYS:
            want = getattr(want_line, attr)
            got = getattr(got_line, attr)
            if want != got:
                return TraceDivergence(index, attr, want, got)
    return None


# ---------------------------------------------------------------------------
# File I/O and the golden matrix
# ---------------------------------------------------------------------------

def write_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace as JSONL; returns the path."""
    path = Path(path)
    path.write_text(trace.to_jsonl())
    return path


def read_trace(path: Union[str, Path]) -> Trace:
    """Parse a JSONL trace file."""
    return Trace.from_jsonl(Path(path).read_text())


def golden_trace_name(workload: str, scheduler: str) -> str:
    """Canonical golden-trace filename for one matrix cell."""
    return f"{workload.lower()}_{scheduler}.jsonl"


def record_golden_traces(
    root: Union[str, Path],
    matrix: Sequence[Tuple[str, str]] = GOLDEN_MATRIX,
    seed: int = 0,
    pool: str = "Tight",
) -> List[Path]:
    """(Re)record the golden matrix under ``root``; returns written paths."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for workload, scheduler in matrix:
        trace = record_trace(
            TraceSpec(workload=workload, scheduler=scheduler,
                      seed=seed, pool=pool)
        )
        written.append(
            write_trace(trace, root / golden_trace_name(workload, scheduler))
        )
    return written
