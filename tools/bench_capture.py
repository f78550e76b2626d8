#!/usr/bin/env python
"""Capture micro-benchmark baselines into ``benchmarks/bench_baseline.json``.

Runs the micro-benchmark files under pytest-benchmark, extracts each test's
*minimum* round time, and writes them as a ``{test_name: min_seconds}``
baseline.  The autouse guard in ``benchmarks/conftest.py`` fails any
benchmark whose min regresses more than 30% past its baseline entry.  The
min -- not the mean -- is tracked because shared/virtualized hosts add
steal time that inflates the mean unboundedly under load, while the
fastest of hundreds of rounds only moves when the code itself slows down.

Usage::

    python tools/bench_capture.py                 # refresh the baseline
    python tools/bench_capture.py --repeat 3      # jitter-robust refresh
    python tools/bench_capture.py --output o.json # write elsewhere
    python tools/bench_capture.py benchmarks/bench_state_encoder.py
    python tools/bench_capture.py --compare benchmarks/bench_baseline.json

``--compare`` is the gate mode: instead of rewriting the baseline it runs
the same benchmarks and exits non-zero if any min regressed more than 30%
(the ``REGRESSION_FACTOR`` in ``benchmarks/conftest.py``) past the given
baseline file.  ``tools/verify_capture.py --with-bench`` invokes it as a
fourth verification stage.

``--repeat N`` captures N times and keeps each benchmark's slowest min --
extra insurance against a capture run where even the best round was
degraded (faster-than-baseline never fails, so erring slow is safe).

Alongside each timing, the per-file *peak RSS* stamped by the conftest
fixture (``extra_info["peak_rss_mb"]``) is captured as a
``{test_name}[rss_mb]`` entry, so ``--compare`` also gates memory
regressions under the same cold-process conditions the baseline was
captured in.  (The in-run guard deliberately skips RSS: ``ru_maxrss`` is
process-wide and monotone, so warm multi-file runs would false-fail.)

Re-run after intentional performance changes and commit the updated
baseline alongside them.

Ledger mode records the repository benchmark (``perfbench/run.py``, run
unchanged) instead of the micro-benchmarks::

    python tools/bench_capture.py --ledger 41           # writes BENCH_41.json
    python tools/bench_capture.py --ledger 41 --seeds 1,2,3 --seconds 4
    python tools/bench_capture.py --ledger 40 --root ../parent-checkout
    python tools/bench_capture.py --compare BENCH_40.json BENCH_41.json

``--ledger PR`` runs every workload of ``BENCHMARK.json`` once per seed,
untraced, and once traced at the first seed.  ``BENCH_<PR>.json`` holds
the git SHA of the measured checkout (``--root``, default this one), the
median, quartiles and IQR of every end-to-end metric over the seeds (the
values perfbench reports, already scaled to its nominal host speed), the
failed-check counts, and each workload's top layers by traced self time.
``--compare A B`` prints every end-to-end metric's median delta from
ledger A to ledger B next to its ``BENCHMARK.json`` bound, and exits
non-zero if one is worse past its bound or B fails a larger share of its
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks excluded from the default capture because they train DRL
#: policies or replay full experiment grids -- far too slow to re-run on
#: every baseline refresh.  Every file here must still exist (the
#: ``tests/test_bench_manifest.py`` drift test checks both directions).
HEAVY_BENCHMARKS = frozenset({
    "bench_ablations.py",
    "bench_ext_azure.py",
    "bench_ext_sharding.py",
    "bench_ext_zygote.py",
    "bench_fig10_memory.py",
    "bench_fig11a_similarity.py",
    "bench_fig11b_variance.py",
    "bench_fig11c_arrivals.py",
    "bench_fig1_breakdown.py",
    "bench_fig2_motivation.py",
    "bench_fig3_dockerhub.py",
    "bench_fig8_overall.py",
    "bench_fig9_trajectory.py",
    "bench_overhead_inference.py",
    "bench_tab2_functions.py",
})


def discover_benchmarks() -> List[str]:
    """Every ``benchmarks/bench_*.py`` file, repo-relative and sorted."""
    return sorted(
        f"benchmarks/{path.name}"
        for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    )


def default_benchmarks() -> List[str]:
    """Discovered benchmarks minus the heavy exclusion set."""
    return [
        path for path in discover_benchmarks()
        if Path(path).name not in HEAVY_BENCHMARKS
    ]


#: Benchmarks fast enough to re-run on every capture: everything under
#: ``benchmarks/`` that is not explicitly listed as heavy, so a new
#: ``bench_*.py`` file joins the baseline automatically (or must be added
#: to :data:`HEAVY_BENCHMARKS`, which the manifest drift test enforces).
DEFAULT_BENCHMARKS = tuple(default_benchmarks())

DEFAULT_OUTPUT = REPO_ROOT / "benchmarks" / "bench_baseline.json"

#: Allowed slowdown in ``--compare`` mode; mirrors the autouse guard's
#: ``REGRESSION_FACTOR`` in ``benchmarks/conftest.py`` (kept as a literal
#: here because conftest modules are not importable outside pytest).
REGRESSION_FACTOR = 1.30

#: Suffix marking a baseline entry as a peak-RSS (MB) capture rather than
#: a min round time (seconds).
RSS_SUFFIX = "[rss_mb]"


def capture(bench_paths: Sequence[str]) -> Dict[str, float]:
    """Run the benchmarks and return ``{test_name: min_seconds}``.

    Each file runs in its own pytest process: timings are
    context-sensitive (a process warmed up by earlier benchmark files
    measures ~1.5x faster mins than a cold one), so the baseline pins the
    cold-process worst case.  Any warmer multi-file run can then only come
    in faster, which the guard never fails.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # The guard compares against the file being regenerated; disable it.
    env["REPRO_BENCH_GUARD"] = "off"
    mins: Dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, path in enumerate(bench_paths):
            json_path = Path(tmp) / f"bench{i}.json"
            result = subprocess.run(
                [sys.executable, "-m", "pytest", path,
                 "--benchmark-only", f"--benchmark-json={json_path}", "-q"],
                cwd=REPO_ROOT, env=env,
            )
            if result.returncode != 0:
                raise SystemExit(
                    f"benchmark run failed ({path}, exit {result.returncode})"
                )
            data = json.loads(json_path.read_text())
            for bench in data["benchmarks"]:
                # Tests that set ``benchmark.extra_info["no_guard"]`` opted
                # out of regression tracking (timings below load-jitter
                # resolution).
                if (bench.get("extra_info") or {}).get("no_guard"):
                    continue
                # "name" is the bare test name, e.g. "test_match_level_rate".
                mins[bench["name"]] = bench["stats"]["min"]
                rss = (bench.get("extra_info") or {}).get("peak_rss_mb")
                if rss:
                    mins[f"{bench['name']}{RSS_SUFFIX}"] = rss
    return dict(sorted(mins.items()))


def compare(mins: Dict[str, float], baseline: Dict[str, float],
            factor: float = REGRESSION_FACTOR) -> List[str]:
    """Regression lines for every min past ``factor`` x its baseline.

    Benchmarks absent from the baseline are reported informationally (a
    fresh ``bench_*.py`` file is not a regression) but do not fail the
    gate; the returned list contains only genuine regressions.
    """
    regressions: List[str] = []
    for name, observed in mins.items():
        fmt = _fmt_rss if name.endswith(RSS_SUFFIX) else _fmt_ms
        base = baseline.get(name)
        if base is None:
            print(f"  new (no baseline): {name} {fmt(observed)}")
            continue
        allowed = base * factor
        if observed > allowed:
            regressions.append(
                f"{name}: {fmt(observed)} > {factor:.2f}x baseline "
                f"({fmt(base)} -> allowed {fmt(allowed)})"
            )
        else:
            print(f"  ok: {name} {fmt(observed)} (baseline {fmt(base)})")
    return regressions


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f} ms"


def _fmt_rss(mb: float) -> str:
    return f"{mb:.1f} MB"


# ---------------------------------------------------------------------------
# Ledger: the repository benchmark, recorded per change
# ---------------------------------------------------------------------------

#: The repository benchmark's declaration: workloads, end-to-end metrics,
#: their bounds and which direction is better.
BENCHMARK_SPEC = REPO_ROOT / "BENCHMARK.json"

LEDGER_SEEDS = (1, 2, 3)
LEDGER_SECONDS = 4.0
TOP_LAYERS = 5

#: One row of perfbench's printed ``--trace 1`` layer table:
#: ``layer  calls  self_s  share%`` (indented sub-rows are left out).
_LAYER_ROW = re.compile(r"^(\S+)\s+(\d+)\s+([0-9.]+)\s+([0-9.]+)%$")

#: Traced layers that are not work: the server's time blocked in the
#: selector.
_IDLE_LAYERS = frozenset({"serve.idle"})


def run_perfbench(root: Path, workload: str, seed: int, seconds: float,
                  trace: int):
    """One ``perfbench/run.py`` run in ``root``; its result line and stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed ({workload}, seed {seed}, "
                         f"trace {trace}, exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def top_layers(stdout: str, n: int = TOP_LAYERS) -> List[Dict[str, float]]:
    """The ``n`` layers with the most self time in a traced run's table."""
    rows = []
    for line in stdout.splitlines():
        match = _LAYER_ROW.match(line)
        if match and match.group(1) not in _IDLE_LAYERS:
            rows.append({"layer": match.group(1),
                         "calls": int(match.group(2)),
                         "self_s": float(match.group(3))})
    rows.sort(key=lambda row: -row["self_s"])
    return rows[:n]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and IQR of ``values`` (inclusive quartiles)."""
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def capture_ledger(root: Path, pr: str, seeds: Sequence[int],
                   seconds: float, spec: dict) -> dict:
    """Run every workload of ``spec`` (``BENCHMARK.json``) with the
    benchmark in ``root`` and fold the runs into one ledger."""
    ledger = {
        "pr": pr,
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(_git(root, "status", "--porcelain",
                           "--untracked-files=no")),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seeds": list(seeds),
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            print(f"ledger: {workload} seed {seed}", file=sys.stderr,
                  flush=True)
            result, _ = run_perfbench(root, workload, seed, seconds, 0)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: entry["value"]
                            for name, entry in result["metrics"].items()},
            })
        print(f"ledger: {workload} traced", file=sys.stderr, flush=True)
        traced, stdout = run_perfbench(root, workload, seeds[0], seconds, 1)
        metrics = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            metrics[name] = dict(
                spread([run["metrics"][name] for run in runs]),
                unit=entry["unit"], better=entry["better"],
            )
        ledger["workloads"][workload] = {
            "metrics": metrics,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "traced_correct": traced["correct"],
            "top_layers": top_layers(stdout),
            "runs": runs,
        }
    return ledger


def compare_ledgers(base: dict, head: dict, spec: dict) -> List[str]:
    """Print each metric's median delta from ``base`` to ``head``; return
    the lines past a ``BENCHMARK.json`` bound."""
    regressions: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        old = base["workloads"].get(workload)
        new = head["workloads"].get(workload)
        if old is None or new is None:
            print(f"  {workload}: not in both ledgers, skipped")
            continue
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            was = old["metrics"][name]["median"]
            now = new["metrics"][name]["median"]
            delta = (now - was) / was if was else 0.0
            worse = -delta if entry["better"] == "higher" else delta
            line = (f"{workload:<14} {name:<20} {was:12.5g} -> {now:12.5g} "
                    f"{delta:+8.1%}  (bound {bound:.0%}, "
                    f"{entry['better']} is better)")
            print(("  WORSE " if worse > bound else "  ok    ") + line)
            if worse > bound:
                regressions.append(line)
        was_failed = old["failed"] / max(1, old["attempted"])
        now_failed = new["failed"] / max(1, new["attempted"])
        if now_failed > was_failed:
            line = (f"{workload:<14} failed checks {was_failed:.4%} -> "
                    f"{now_failed:.4%}")
            print("  WORSE " + line)
            regressions.append(line)
    return regressions


def _ledger_main(args: argparse.Namespace) -> int:
    seeds = [int(s) for s in args.seeds.split(",")]
    ledger = capture_ledger(Path(args.root).resolve(), args.ledger, seeds,
                            args.seconds,
                            json.loads(BENCHMARK_SPEC.read_text()))
    output = Path(args.output or REPO_ROOT / f"BENCH_{args.ledger}.json")
    output.write_text(json.dumps(ledger, indent=1) + "\n")
    for workload, entry in ledger["workloads"].items():
        print(f"{workload}: " + ", ".join(
            f"{name} {m['median']:.5g} (IQR {m['iqr']:.3g})"
            for name, m in entry["metrics"].items()))
    print(f"wrote {output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*",
                        default=list(DEFAULT_BENCHMARKS),
                        help="benchmark files to capture")
    parser.add_argument("--output", default=None,
                        help="output JSON path (default: the baseline, or "
                             "BENCH_<PR>.json with --ledger)")
    parser.add_argument("--compare", metavar="FILE", nargs="+", default=None,
                        help="BASELINE: compare the micro-benchmarks "
                             "against this baseline instead of rewriting "
                             "it; exits non-zero on any "
                             f">{REGRESSION_FACTOR:.2f}x regression.  "
                             "A B: compare ledger B against ledger A; "
                             "exits non-zero past a BENCHMARK.json bound")
    parser.add_argument("--ledger", metavar="PR", default=None,
                        help="run the repository benchmark and write the "
                             "ledger BENCH_<PR>.json")
    parser.add_argument("--seeds", default=",".join(map(str, LEDGER_SEEDS)),
                        help="ledger seeds, comma-separated")
    parser.add_argument("--seconds", type=float, default=LEDGER_SECONDS,
                        help="ledger run length per perfbench run")
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="checkout whose perfbench the ledger runs")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="capture N times and keep each benchmark's "
                             "slowest min (jitter-robust baseline)")
    args = parser.parse_args(argv)
    if args.compare is not None and len(args.compare) == 2:
        base, head = (json.loads(Path(p).read_text()) for p in args.compare)
        regressions = compare_ledgers(
            base, head, json.loads(BENCHMARK_SPEC.read_text()))
        print(f"ledger compare: {'FAILED' if regressions else 'ok'} "
              f"({len(regressions)} past a bound)")
        return 1 if regressions else 0
    if args.compare is not None and len(args.compare) > 2:
        parser.error("--compare takes a baseline, or two ledgers")
    if args.ledger is not None:
        return _ledger_main(args)
    mins = capture(args.benchmarks)
    for _ in range(args.repeat - 1):
        for name, observed in capture(args.benchmarks).items():
            mins[name] = max(observed, mins.get(name, 0.0))
    if args.compare is not None:
        baseline = json.loads(Path(args.compare[0]).read_text())
        regressions = compare(mins, baseline)
        for line in regressions:
            print(f"REGRESSION {line}")
        status = "FAILED" if regressions else "ok"
        print(f"bench gate: {status} ({len(mins)} benchmarks, "
              f"{len(regressions)} regressions)")
        return 1 if regressions else 0
    output = Path(args.output or DEFAULT_OUTPUT)
    output.write_text(json.dumps(mins, indent=2, sort_keys=True) + "\n")
    for name, observed in mins.items():
        fmt = _fmt_rss if name.endswith(RSS_SUFFIX) else _fmt_ms
        print(f"{name}: {fmt(observed)}")
    print(f"wrote {len(mins)} baselines to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
