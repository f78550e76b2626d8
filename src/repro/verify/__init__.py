"""Verification subsystem: invariant monitors, golden traces, differentials.

Three pillars keep the simulator's correctness claims true permanently
instead of per-PR:

* :mod:`repro.verify.invariants` -- pluggable runtime
  :class:`~repro.verify.invariants.InvariantMonitor` objects hooked into
  the event loop, the container lifecycle and the placement engine
  (enabled via ``SimulationConfig.verify``; zero-cost when disabled) that
  continuously assert container conservation, capacity and concurrency
  bounds, pool-index consistency, volume mount/unmount pairing, clock
  monotonicity and TTL-expiry ordering;
* :mod:`repro.verify.trace` -- a compact versioned JSONL trace of every
  scheduling decision, with record / replay / diff primitives (exposed as
  the ``repro trace`` CLI) and checked-in golden traces that turn any
  behavioural drift into a structured first-divergence report;
* :mod:`repro.verify.differential` -- a differential oracle harness that
  cross-checks every equivalence pair the codebase promises (batch vs
  incremental driving, global vs sharded pools, fused vs unfused QKV,
  float32 vs float64 serving, sequential vs batched rollouts, serial vs
  parallel experiment grids).

``tools/verify_capture.py`` runs all three pillars as a one-command local
gate alongside ``tools/bench_capture.py``.
"""

from repro.verify.invariants import (
    CapacityMonitor,
    ClockMonitor,
    ConservationMonitor,
    InvariantMonitor,
    InvariantViolation,
    PoolIndexMonitor,
    TTLMonitor,
    VerificationHarness,
    VolumeMonitor,
)
from repro.jsonl import Divergence
from repro.verify.trace import (
    TRACE_FORMAT_VERSION,
    Trace,
    TraceHeader,
    TraceSpec,
    diff_traces,
    read_trace,
    record_trace,
    replay_trace,
    write_trace,
)
from repro.verify.differential import ORACLES, OracleResult, run_oracles

__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "VerificationHarness",
    "ConservationMonitor",
    "CapacityMonitor",
    "PoolIndexMonitor",
    "VolumeMonitor",
    "ClockMonitor",
    "TTLMonitor",
    "TRACE_FORMAT_VERSION",
    "Trace",
    "TraceHeader",
    "TraceSpec",
    "Divergence",
    "record_trace",
    "replay_trace",
    "read_trace",
    "write_trace",
    "diff_traces",
    "ORACLES",
    "OracleResult",
    "run_oracles",
]
