#!/usr/bin/env python
"""Run the full verification gate: invariants, golden traces, oracles.

Three stages, in order:

1. **Invariant sweep** -- every FStartBench workload x every scheduler
   with ``SimulationConfig.verify`` on, once clean and once under fault
   injection (crashes + stragglers on a sharded, concurrency-limited
   cluster).  Any :class:`InvariantViolation` fails the gate.
2. **Golden traces** -- every checked-in trace under
   ``tests/golden_traces/`` is replayed and must be bit-identical; the
   first divergence is printed.
3. **Differential oracles** -- every oracle from
   :mod:`repro.verify.differential` (including ``cached_vs_fresh``, the
   experiment-cache equivalence check).

``--with-bench`` appends a fourth stage: ``tools/bench_capture.py
--compare benchmarks/bench_baseline.json``, which re-runs the
micro-benchmarks and fails on any >30% mean regression.  Off by default
because it takes benchmark-suite time, not verification time.

Exits non-zero on the first failing stage (later stages still run so the
report is complete).  Usage::

    PYTHONPATH=src python tools/verify_capture.py
    PYTHONPATH=src python tools/verify_capture.py --stage traces
    PYTHONPATH=src python tools/verify_capture.py --with-bench
    PYTHONPATH=src python tools/verify_capture.py --regold   # rewrite goldens
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.faults import FaultConfig  # noqa: E402
from repro.cluster.simulator import (  # noqa: E402
    ClusterSimulator,
    SimulationConfig,
)
from repro.experiments.parallel import (  # noqa: E402
    SCHEDULER_FACTORIES,
    build_scheduler,
)
from repro.verify.differential import run_oracles  # noqa: E402
from repro.verify.invariants import InvariantViolation  # noqa: E402
from repro.verify.trace import (  # noqa: E402
    diff_traces,
    read_trace,
    record_golden_traces,
    replay_trace,
)
from repro.workloads.fstartbench import (  # noqa: E402
    WORKLOAD_BUILDERS,
    build_workload,
)

GOLDEN_ROOT = REPO_ROOT / "tests" / "golden_traces"

FAULTED = dict(
    faults=FaultConfig(crash_prob=0.1, straggler_prob=0.2, seed=3),
    per_worker_pools=True,
    worker_concurrency=2,
)


def _run_cell(workload_name: str, scheduler_key: str, **overrides) -> int:
    """One verified run; returns the number of checkpoints executed."""
    workload = build_workload(workload_name, seed=0)
    scheduler = build_scheduler(scheduler_key)
    scheduler.reset()
    if hasattr(scheduler, "observe_workload"):
        scheduler.observe_workload(workload)
    eviction = (
        scheduler.make_eviction_policy()
        if hasattr(scheduler, "make_eviction_policy")
        else None
    )
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=1500.0, verify=True, **overrides),
        eviction,
    )
    sim.run(workload, scheduler)
    return sim.verifier.checks_run


def stage_invariants() -> bool:
    """Sweep workloads x schedulers x {clean, faulted}; True when clean."""
    ok = True
    checks = 0
    for workload_name in WORKLOAD_BUILDERS:
        for scheduler_key in sorted(SCHEDULER_FACTORIES):
            for label, overrides in (("clean", {}), ("faulted", FAULTED)):
                try:
                    checks += _run_cell(workload_name, scheduler_key,
                                        **overrides)
                except InvariantViolation as violation:
                    ok = False
                    print(f"FAIL {workload_name} x {scheduler_key} "
                          f"({label}): {violation}")
    cells = len(WORKLOAD_BUILDERS) * len(SCHEDULER_FACTORIES) * 2
    status = "ok" if ok else "FAILED"
    print(f"invariants: {status} ({cells} cells, {checks} checkpoints)")
    return ok


def stage_traces() -> bool:
    """Replay every checked-in golden trace; True when each re-recording
    serializes to its file's text byte for byte."""
    paths = sorted(GOLDEN_ROOT.glob("*.jsonl"))
    if not paths:
        print(f"traces: FAILED (no golden traces under {GOLDEN_ROOT})")
        return False
    ok = True
    for path in paths:
        golden = read_trace(path)
        replayed = replay_trace(golden, verify=True)
        divergence = diff_traces(golden, replayed)
        if divergence is not None or replayed.to_jsonl() != path.read_text():
            ok = False
            print(f"FAIL {path.name}: "
                  f"{divergence or 're-recording differs from the file text'}")
    status = "ok" if ok else "FAILED"
    print(f"traces: {status} ({len(paths)} golden traces)")
    return ok


def stage_oracles() -> bool:
    """Run every differential oracle; True when all agree."""
    results = run_oracles()
    for result in results:
        print(f"  {result}")
    ok = all(r.ok for r in results)
    status = "ok" if ok else "FAILED"
    print(f"oracles: {status} ({len(results)} oracles)")
    return ok


def stage_bench() -> bool:
    """Run the benchmark regression gate; True when nothing regressed."""
    import subprocess

    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "bench_capture.py"),
         "--compare",
         str(REPO_ROOT / "benchmarks" / "bench_baseline.json")],
        cwd=REPO_ROOT,
    )
    ok = result.returncode == 0
    print(f"bench: {'ok' if ok else 'FAILED'}")
    return ok


STAGES = {
    "invariants": stage_invariants,
    "traces": stage_traces,
    "oracles": stage_oracles,
    "bench": stage_bench,
}

#: Stages run without ``--stage``/``--with-bench``; the bench gate is
#: opt-in because it costs benchmark-suite minutes.
DEFAULT_STAGES = ("invariants", "traces", "oracles")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=sorted(STAGES), default=None,
                        help="run a single stage instead of the default set")
    parser.add_argument("--with-bench", action="store_true",
                        help="also run the benchmark regression gate "
                             "(tools/bench_capture.py --compare)")
    parser.add_argument("--regold", action="store_true",
                        help="rewrite the golden traces and exit")
    args = parser.parse_args(argv)
    if args.regold:
        for path in record_golden_traces(GOLDEN_ROOT):
            print(f"wrote {path}")
        return 0
    if args.stage:
        stages = [args.stage]
    else:
        stages = list(DEFAULT_STAGES)
        if args.with_bench:
            stages.append("bench")
    ok = True
    for stage_name in stages:
        ok = STAGES[stage_name]() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
