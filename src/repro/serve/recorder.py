"""Serving-session recording and deterministic replay.

Every served decision is appended to a JSONL log: one header line carrying
everything needed to rebuild the cluster (scheduler key, capacities,
worker topology, keep-alive TTL), then one
:func:`~repro.jsonl.decision_line` per decision (function, stamped
arrival time, execution time and the full decision outcome) and one line
per scheduler hot-swap.  Lines are flushed as written, so a session
interrupted at any point still replays up to its last decision.

Replay (:func:`replay_recording`) rebuilds a fresh
:class:`~repro.serve.engine.ServeEngine` from the header and re-submits
the recorded arrivals with their recorded stamps.  Because the engine's
state transitions all happen in the simulator's virtual time, the replayed
decisions must match the served ones byte for byte; the first key that
differs is reported as a :class:`~repro.jsonl.Divergence`.  The
``serve_replay`` differential oracle runs exactly this check.

Limitations: recordings assume the default
:class:`~repro.containers.costmodel.StartupCostModel` and fault-free
dynamics (fault sampling draws RNG state the log does not carry);
:meth:`DecisionRecorder.write_header` rejects fault-enabled configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from repro.cluster.lanes import SCHEDULER_CLASS_NAMES
from repro.jsonl import (
    BOOL,
    DECISION_SCHEMA,
    INT,
    NUMBER,
    STR,
    Divergence,
    check_object,
    decision_line,
    first_divergence,
    nullable,
    read_object,
)
from repro.workloads.functions import fstartbench_functions

__all__ = [
    "DecisionRecorder",
    "ReplayReport",
    "read_recording",
    "replay_recording",
]

#: Recording format version (bumped on any incompatible line change).
RECORDING_VERSION = 1

#: Header keys replay rebuilds the engine from, with their JSON kinds.
_HEADER_SCHEMA = {
    "scheduler": STR,
    "pool_capacity_mb": NUMBER,
    "n_workers": INT,
    "worker_concurrency": nullable(INT),
    "per_worker_pools": BOOL,
    "delta_pricing": BOOL,
    "keepalive_ttl_s": nullable(NUMBER),
}

#: Keys replay reads from a scheduler hot-swap marker.
_SWAP_SCHEMA = {"swap": STR}


class DecisionRecorder:
    """Append-only JSONL log of one serving session.

    With ``path=None`` the recording is kept in memory (tests, the replay
    oracle); with a path, lines are written and flushed immediately.  The
    header is written by the owning engine at construction time via
    :meth:`write_header`.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._fh: Optional[IO[str]] = (
            self.path.open("w", encoding="utf-8")
            if self.path is not None
            else None
        )
        self._memory: List[str] = []
        self.n_decisions = 0
        self.n_swaps = 0

    # -- writing -------------------------------------------------------------
    def write_header(self, engine) -> None:
        """Write the session header derived from ``engine``'s cluster config."""
        config = engine.sim.config
        if config.faults.enabled:
            raise ValueError(
                "serving recordings do not carry fault-model RNG state; "
                "disable faults for recorded sessions"
            )
        self._write({
            "version": RECORDING_VERSION,
            "kind": "serve",
            "scheduler": engine.scheduler_key,
            "pool_capacity_mb": config.pool_capacity_mb,
            "n_workers": config.n_workers,
            "worker_concurrency": config.worker_concurrency,
            "per_worker_pools": config.per_worker_pools,
            "delta_pricing": config.delta_pricing,
            "keepalive_ttl_s": engine.keepalive_ttl_s,
        })

    def on_decision(self, record) -> None:
        """Append one served decision (an ``InvocationRecord``) to the log."""
        self._write(decision_line(record))
        self.n_decisions += 1

    def on_swap(self, key: str, t: float) -> None:
        """Append one scheduler hot-swap marker."""
        self._write({"swap": key, "t": t})
        self.n_swaps += 1

    def close(self) -> None:
        """Close the backing file, if any (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -------------------------------------------------------------
    def lines(self) -> List[str]:
        """The recorded JSONL lines (from memory or the backing file)."""
        if self.path is not None:
            return self.path.read_text(encoding="utf-8").splitlines()
        return list(self._memory)

    def _write(self, obj: Dict[str, object]) -> None:
        """Serialize and append one line, flushing write-through."""
        line = json.dumps(obj, separators=(",", ":"))
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()
        else:
            self._memory.append(line)


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one recorded serving session."""

    n_decisions: int
    n_swaps: int
    divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        """Whether every replayed decision matched the recording."""
        return self.divergence is None


def read_recording(
    source: Union[str, Path, Iterable[str]],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Parse a recording into ``(header, entries)``.

    ``source`` is a path or an iterable of JSONL lines (e.g.
    :meth:`DecisionRecorder.lines`); blank lines are skipped from either,
    and messages number lines as the source does.  Raises ``ValueError``
    on an empty log, an unsupported header (one that sets the retired
    ``worker_capacity_mb`` included), a line that is not a JSON object
    with the keys replay reads at their JSON types, a header or swap
    marker naming an unknown scheduler key, or a decision naming a
    function the replay engine does not serve (the message names the
    line and the key).
    """
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8").splitlines()
    lines = [(number, line) for number, line in enumerate(source, start=1)
             if line.strip()]
    if not lines:
        raise ValueError("empty serving recording")
    (header_number, header_line), *rest = lines
    header_where = f"recording line {header_number}"
    header = read_object(header_line, header_where)
    if header.get("kind") != "serve":
        raise ValueError(f"not a serving recording: {header!r}")
    if header.get("version") != RECORDING_VERSION:
        raise ValueError(
            f"unsupported recording version {header.get('version')!r}"
        )
    # Recordings made while the per-worker memory filter existed carry it;
    # a non-null value placed containers by a rule that no longer exists.
    if header.get("worker_capacity_mb") is not None:
        raise ValueError(
            "recording sets retired option worker_capacity_mb="
            f"{header['worker_capacity_mb']!r}; its placements cannot be "
            "replayed"
        )
    check_object(header, _HEADER_SCHEMA, header_where, closed=False)
    _require_known(header, "scheduler", SCHEDULER_CLASS_NAMES, "scheduler",
                   header_where)
    functions = {spec.name for spec in fstartbench_functions()}
    entries = []
    for number, line in rest:
        where = f"recording line {number}"
        entry = read_object(line, where)
        if "swap" in entry:
            check_object(entry, _SWAP_SCHEMA, where, closed=False)
            _require_known(entry, "swap", SCHEDULER_CLASS_NAMES, "scheduler",
                           where)
        else:
            check_object(entry, DECISION_SCHEMA, where, closed=False)
            _require_known(entry, "fn", functions, "function", where)
        entries.append(entry)
    return header, entries


def _require_known(data: Dict[str, object], key: str, known, what: str,
                   where: str) -> None:
    """``ValueError`` unless the string ``data[key]`` is one of ``known``."""
    if data[key] not in known:
        raise ValueError(
            f"{where} key {key!r} names unknown {what} {data[key]!r}; "
            f"choose from {sorted(known)}"
        )


def replay_recording(
    source: Union[str, Path, Iterable[str]], verify: bool = False
) -> ReplayReport:
    """Re-drive a recorded session through a fresh engine and compare.

    Rebuilds the cluster and scheduler from the header, submits every
    recorded arrival with its recorded stamp and execution time, applies
    scheduler swaps at their recorded positions, and compares each decision
    line key by key (the recorded value is ``expected``, the replayed one
    ``actual``).  ``verify=True`` additionally runs the invariant
    monitors throughout the replay.  Stops at the first divergence.
    """
    from repro.cluster.simulator import SimulationConfig
    from repro.serve.engine import ServeEngine

    header, entries = read_recording(source)
    config = SimulationConfig(
        pool_capacity_mb=header["pool_capacity_mb"],
        n_workers=header["n_workers"],
        worker_concurrency=header["worker_concurrency"],
        per_worker_pools=header["per_worker_pools"],
        delta_pricing=header["delta_pricing"],
        verify=verify,
    )
    engine = ServeEngine(
        config,
        scheduler=header["scheduler"],
        keepalive_ttl_s=header["keepalive_ttl_s"],
    )
    n_decisions = 0
    n_swaps = 0
    divergence: Optional[Divergence] = None
    for entry in entries:
        if "swap" in entry:
            engine.swap_scheduler(entry["swap"])
            n_swaps += 1
            continue
        outcome = engine.submit(
            entry["fn"], exec_time_s=entry["exec"], now=entry["t"]
        )
        divergence = first_divergence(n_decisions, entry,
                                      decision_line(outcome.record),
                                      DECISION_SCHEMA)
        n_decisions += 1
        if divergence is not None:
            break
    engine.drain()
    return ReplayReport(
        n_decisions=n_decisions, n_swaps=n_swaps, divergence=divergence
    )
