"""The repository benchmark: one command, four workloads, two kinds of run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the reasons for each are in ``BENCHMARK.json`` and in the
docstrings of :mod:`workloads` and :mod:`serving`):

* ``grid-closed``   -- closed-form registry keys x 8 FStartBench workloads
  x Tight/Moderate/Loose;
* ``grid-scripted`` -- the scripted keys (FaasCache, Lookahead, MPC,
  lending) over the same grid;
* ``azure-stream``  -- a 2,000-function, 100k-arrival Azure-like stream
  through bounded closed-form stream lanes;
* ``serve-http``    -- the HTTP serving plane under open-loop Poisson load.

``--trace 0`` measures host time for ``--seconds`` and reports, for every
workload, the same end-to-end metrics.  Every host time is scaled to a
nominal host speed by a calibration kernel timed right before and after
each measured unit (:mod:`hostspeed`), because the CPU speed of a shared
host drifts by tens of percent within minutes; raw values are printed as
well.  Each leg is split into units that repeat once per round, and a
unit's cost is the median of its repetitions.

``setup_s``
    Median of several set-ups, each in a fresh process: grid synthesis,
    pool sizing, lowering and memo warm-up; stream generator and capacity;
    serve process start until ``/healthz`` answers.
``peak_rss_mb``
    Peak RSS of the measuring process (serve: of the server process).
``inv_per_s``
    The production path's throughput: simulated
    invocations per host second through ``run_grid(jobs=1, lanes=16)``
    (grids) or arrivals x lanes through ``run_stream_lanes`` with
    generation included (stream); requests per server CPU second at the
    base rate (serve).
``reference_inv_per_s``
    The sequential engine on the same inputs:
    ``ClusterSimulator.run`` per grid cell, ``ClusterSimulator.run_stream``
    of the stream's ``greedy`` cell, ``ServeEngine.submit`` in-process on a
    virtual clock (serve).
``p50_ms`` / ``tail_ms``
    Per-operation host latency on the sequential engine: one grid cell,
    one block of 1,000 stream arrivals, one ``ServeEngine.submit`` decision
    (serve; HTTP round-trip latency from the due time is printed, see
    :mod:`serving`).  ``tail_ms`` is the highest percentile with at least
    ten samples beyond it; the percentile and sample count are printed.

Failures are counted, not reported as a metric: the result line's
``failed`` / ``attempted`` is the failed fraction (cell or pass checks
that differ, requests that got a non-200, errored or timed out), printed
as ``failed_frac``.

``--trace 1`` runs every leg once untraced and once with span wrappers
installed around each layer's public functions (:mod:`tracing`), and
reports per-layer calls and self time, the share of traced wall time the
top-level spans cover, and the tracing overhead.  End-to-end metrics never
come from a traced run.

Every run also checks outputs: lane summaries equal the sequential ones,
repeated passes equal the first, warm-cache cells equal fresh ones, the
serve engine served exactly the successful requests, and the simulated
outputs' digest equals the one stored in ``digests.json`` for the seed
(``--record-digests 0-31 [--workload NAME]`` rewrites its entries).  The
benchmark reads and writes only inside its checkout: scratch files go
under ``.perfbench_tmp/`` and the repository's ``.repro_cache/`` is never
used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("grid-closed", "grid-scripted", "azure-stream", "serve-http")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120.0


def build(name: str, seed: int):
    """The workload object for ``name`` at ``seed``."""
    from serving import ServeWorkload
    from workloads import (CLOSED_KEYS, SCRIPTED_KEYS, GridWorkload,
                           StreamWorkload)

    if name == "grid-closed":
        return GridWorkload(name, CLOSED_KEYS, seed)
    if name == "grid-scripted":
        return GridWorkload(name, SCRIPTED_KEYS, seed)
    if name == "azure-stream":
        return StreamWorkload(seed)
    return ServeWorkload(seed)


def child_setup_s(name: str, seed: int) -> float:
    """One set-up measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def timed_setup(workload) -> float:
    """Host seconds of one set-up, scaled to the nominal host speed."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.tick()
    start = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - start
    speed.tick()
    return seconds * speed.factor()


def stored_digest(name: str, seed: int):
    try:
        table = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return None
    return table.get(name, {}).get(str(seed))


def check_digest(workload, name: str, seed: int, checks) -> None:
    expected = stored_digest(name, seed)
    if expected is not None:
        checks.check(workload.digest() == expected,
                     f"simulated outputs differ from digests.json[{name}]")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: every end-to-end metric."""
    from workloads import Checks, Legs

    workload = build(name, seed)
    legs, checks = Legs(), Checks()
    if name == "serve-http":
        workload.measure(seconds, legs, checks)
        setup_s = workload.setup_s()
        rss_mb = workload.rss_mb
    else:
        samples = [timed_setup(workload)]
        samples += [child_setup_s(name, seed)
                    for _ in range(SETUP_REPEATS - 1)]
        workload.measure(seconds, legs, checks)
        if name.startswith("grid"):
            workload.cache_leg(SCRATCH, legs, checks)
        setup_s = statistics.median(samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_digest(workload, name, seed, checks)
    p50_ms, tail_p, tail_ms, ops = legs.op_stats()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "inv_per_s": metric(legs.rate("main"), "1/s"),
        "reference_inv_per_s": metric(legs.rate("reference"), "1/s"),
        "p50_ms": metric(p50_ms, "ms"),
        "tail_ms": metric(tail_ms, "ms"),
    }
    print(f"# {name} seed={seed} seconds={seconds:g}")
    for key, entry in metrics.items():
        print(f"{key:>22} {entry['value']:14.4f} {entry['unit']}")
    print(f"{'tail percentile':>22} p{tail_p:.4g} of {ops} operations;"
          f" rounds main={legs.rounds('main')}"
          f" reference={legs.rounds('reference')}")
    raw_p50, _, raw_tail, _ = legs.op_stats(raw=True)
    legs.info["raw_inv_per_s"] = legs.rate("main", raw=True)
    legs.info["raw_reference_inv_per_s"] = legs.rate("reference", raw=True)
    legs.info["raw_p50_ms"] = raw_p50
    legs.info["raw_tail_ms"] = raw_tail
    for key, value in sorted(legs.info.items()):
        print(f"{key:>24} {value:14.4f}")
    return finish(metrics, checks)


def finish(metrics: dict, checks) -> dict:
    failed_frac = checks.failed / max(1, checks.attempted)
    print(f"{'failed_frac':>22} {failed_frac:14.6f} "
          f"({checks.failed} of {checks.attempted} checks)")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """Traced run: every per-layer metric."""
    import traced

    metrics, checks = traced.run(name, seed, seconds, build, check_digest,
                                 SCRATCH)
    return finish(metrics, checks)


def record_digests(spec: str, names) -> int:
    """Recompute ``digests.json`` entries of ``names`` for the seeds in
    ``spec`` (``a-b``); other entries are kept."""
    from workloads import Checks, Legs

    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in names:
        table.setdefault(name, {})
        for seed in seeds:
            workload = build(name, seed)
            if name != "serve-http":
                workload.setup()
                workload.lanes_pass(Legs(), Checks())
            table[name][str(seed)] = workload.digest()
            print(name, seed, table[name][str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see module docstring)."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", metavar="A-B")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["REPRO_CACHE"] = "off"
    os.environ["REPRO_CACHE_DIR"] = str(SCRATCH / "repro_cache")

    if args.record_digests:
        return record_digests(args.record_digests,
                              [args.workload] if args.workload else WORKLOADS)
    if args.setup_only:
        setup_s = timed_setup(build(args.workload, args.seed))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    SCRATCH.mkdir(exist_ok=True)
    runner = run_traced if args.trace else run_plain
    result = runner(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
