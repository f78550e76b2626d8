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
structured :class:`~repro.jsonl.Divergence` -- the exact first event and key
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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.experiments.common import POOL_LEVELS, pool_sizes
from repro.experiments.parallel import SCHEDULER_FACTORIES, build_scheduler
from repro.jsonl import (
    DECISION_SCHEMA,
    INT,
    NUMBER,
    STR,
    Divergence,
    check_object,
    decision_line,
    first_divergence,
    read_object,
)
from repro.workloads.fstartbench import WORKLOAD_BUILDERS, build_workload

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
    not part of the header).
    """

    workload: str
    scheduler: str
    seed: int = 0
    pool: str = "Tight"
    verify: bool = False


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
        """The recording spec this header was produced from.

        ``ValueError`` naming the key and its value when the header's
        workload, scheduler or pool is not one this build can run.
        """
        for key, known in (("workload", WORKLOAD_BUILDERS),
                           ("scheduler", SCHEDULER_FACTORIES),
                           ("pool", POOL_LEVELS)):
            value = getattr(self, key)
            if not isinstance(value, str) or value not in known:
                raise ValueError(
                    f"trace header has unknown {key} {value!r}; "
                    f"choose from {sorted(known)}"
                )
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
        """Parse a header line; ``ValueError`` unless it is this format's."""
        data = read_object(line, "trace header")
        version = data.get("version", TRACE_FORMAT_VERSION)
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version!r} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )
        check_object(data, _HEADER_SCHEMA, "trace header")
        return TraceHeader(**data)


#: The JSON value kind each field annotation accepts, keyed by annotation
#: string (this module postpones annotations).
_KINDS = {"int": INT, "str": STR, "float": NUMBER}

#: Header key -> kind, in serialization order.
_HEADER_SCHEMA = {f.name: _KINDS[f.type] for f in fields(TraceHeader)}


#: Line key -> kind: the event index, then the decision fields.
_LINE_SCHEMA = {"i": INT, **DECISION_SCHEMA}


def _read_line(row: str) -> Dict[str, Any]:
    """Parse one decision line; ``ValueError`` on a malformed one."""
    line = read_object(row, "trace line")
    check_object(line, _LINE_SCHEMA, "trace line")
    return line


@dataclass(frozen=True)
class Trace:
    """A parsed trace: header plus every decision line.

    Each line is a dict: the event index ``i``, then the
    :func:`~repro.jsonl.decision_line` of that invocation.
    """

    header: TraceHeader
    lines: Tuple[Dict[str, Any], ...]

    def to_jsonl(self) -> str:
        """Serialize to the on-disk JSONL form (trailing newline included)."""
        out = [self.header.to_json()]
        out.extend(json.dumps(line) for line in self.lines)
        return "\n".join(out) + "\n"

    @staticmethod
    def from_jsonl(text: str) -> "Trace":
        """Parse the JSONL form; ``ValueError`` naming the bad line."""
        parsed: list = []
        for number, row in enumerate(text.splitlines(), start=1):
            if not row.strip():
                continue
            try:
                parsed.append(
                    _read_line(row) if parsed else TraceHeader.from_json(row)
                )
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
        if not parsed:
            raise ValueError("empty trace")
        header, *rest = parsed
        lines = tuple(rest)
        if header.n_events != len(lines):
            raise ValueError(
                f"trace header promises {header.n_events} events, "
                f"file holds {len(lines)}"
            )
        return Trace(header=header, lines=lines)


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
    return capacity, sim.run(workload, scheduler)


def record_trace(spec: TraceSpec) -> Trace:
    """Simulate the spec's cell and capture its full decision trace."""
    capacity, result = _simulate(spec)
    lines = tuple(
        {"i": i, **decision_line(record)}
        for i, record in enumerate(result.telemetry.records)
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


def diff_traces(expected: Trace, actual: Trace) -> Optional[Divergence]:
    """First divergence between two traces, or ``None`` when identical."""
    divergence = first_divergence(-1, asdict(expected.header),
                                  asdict(actual.header), _HEADER_SCHEMA)
    if divergence is not None:
        return divergence
    for index, (want, got) in enumerate(zip(expected.lines, actual.lines)):
        divergence = first_divergence(index, want, got, _LINE_SCHEMA)
        if divergence is not None:
            return divergence
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
    """Parse a JSONL trace file; ``ValueError`` names the file and line."""
    try:
        return Trace.from_jsonl(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
