"""Drift test between ``benchmarks/``, the capture tool and the baseline.

Three artifacts must stay in sync:

* every ``benchmarks/bench_*.py`` file is either in the capture tool's
  default set or explicitly listed as heavy (and vice versa -- no ghost
  registrations);
* every benchmark test in the default set has a baseline entry in
  ``benchmarks/bench_baseline.json`` -- unless it opts out of the
  regression guard with ``benchmark.extra_info["no_guard"] = True``
  (detected here via the AST, mirroring the capture tool's JSON filter);
* every baseline entry corresponds to a benchmark test that still exists.

A new benchmark file that is neither captured nor declared heavy, or a
renamed benchmark leaving a stale baseline behind, fails here instead of
silently weakening the regression guard.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _load_bench_capture():
    spec = importlib.util.spec_from_file_location(
        "bench_capture", REPO_ROOT / "tools" / "bench_capture.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_capture", module)
    spec.loader.exec_module(module)
    return module


bench_capture = _load_bench_capture()


def _opts_out_of_guard(func: ast.AST) -> bool:
    """True if the test body sets ``benchmark.extra_info["no_guard"]``."""
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if (isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "extra_info"
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == "no_guard"):
            return True
    return False


def _benchmark_tests(path: Path) -> set:
    """Names of the guarded benchmark tests a bench file defines (AST).

    Tests that opt out of the regression guard are excluded: the capture
    tool never writes baseline entries for them.
    """
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = {a.arg for a in node.args.args}
            if (node.name.startswith("test_") and "benchmark" in args
                    and not _opts_out_of_guard(node)):
                names.add(node.name)
    return names


def test_every_bench_file_is_registered():
    on_disk = {p.name for p in BENCH_DIR.glob("bench_*.py")}
    captured = {Path(p).name for p in bench_capture.DEFAULT_BENCHMARKS}
    heavy = set(bench_capture.HEAVY_BENCHMARKS)
    unregistered = on_disk - captured - heavy
    assert not unregistered, (
        f"benchmark files neither captured nor declared heavy: "
        f"{sorted(unregistered)}"
    )


def test_no_ghost_registrations():
    on_disk = {p.name for p in BENCH_DIR.glob("bench_*.py")}
    captured = {Path(p).name for p in bench_capture.DEFAULT_BENCHMARKS}
    heavy = set(bench_capture.HEAVY_BENCHMARKS)
    assert captured <= on_disk, sorted(captured - on_disk)
    assert heavy <= on_disk, sorted(heavy - on_disk)
    assert not captured & heavy, sorted(captured & heavy)


def test_captured_benchmarks_have_baseline_entries():
    baseline = json.loads((BENCH_DIR / "bench_baseline.json").read_text())
    expected = set()
    for rel in bench_capture.DEFAULT_BENCHMARKS:
        expected |= _benchmark_tests(REPO_ROOT / rel)
    assert expected, "default benchmark set defines no benchmark tests"
    missing = expected - set(baseline)
    assert not missing, (
        f"benchmark tests without a baseline entry: {sorted(missing)} "
        "(run tools/bench_capture.py)"
    )


def test_every_baseline_entry_maps_to_a_live_benchmark():
    baseline = json.loads((BENCH_DIR / "bench_baseline.json").read_text())
    live = set()
    for rel in bench_capture.DEFAULT_BENCHMARKS:
        live |= _benchmark_tests(REPO_ROOT / rel)
    # ``{name}[rss_mb]`` entries are the peak-RSS companions of a timing
    # entry; they map to the same live test.
    stale = {
        name for name in baseline
        if name.removesuffix(bench_capture.RSS_SUFFIX) not in live
    }
    assert not stale, (
        f"baseline entries with no matching benchmark test: {sorted(stale)}"
    )
    assert all(
        isinstance(v, float) and v > 0 for v in baseline.values()
    ), "baseline means must be positive floats"


def test_discovery_matches_disk():
    discovered = set(bench_capture.discover_benchmarks())
    on_disk = {f"benchmarks/{p.name}" for p in BENCH_DIR.glob("bench_*.py")}
    assert discovered == on_disk
    assert set(bench_capture.DEFAULT_BENCHMARKS) == set(
        bench_capture.default_benchmarks()
    )


# ---------------------------------------------------------------------------
# The ledger's folding and comparison (no benchmark runs)
# ---------------------------------------------------------------------------

_TRACED_TABLE = """\
# traced serve-http: wall 0.427 s
layer                                   calls     self_s   share
serve.idle                               1136     3.2744  766.2%
serve.callback                           1193     0.2335   54.6%
serve.router                             1907     0.0583   13.6%
serve.engine.submit                       621     0.0353    8.3%
serve.loop                               1135     0.0288    6.7%
lifecycle.apply                          1455     0.0161    3.8%
sketches.insert                          2484     0.0077    1.8%
  decide.greedy                           621     0.0038
pool.lookup.hit_ratio                                     0.0370
"""


def test_ledger_top_layers_skip_idle_time_and_sub_rows():
    rows = bench_capture.top_layers(_TRACED_TABLE)
    assert [row["layer"] for row in rows] == [
        "serve.callback", "serve.router", "serve.engine.submit",
        "serve.loop", "lifecycle.apply",
    ]
    assert rows[0] == {"layer": "serve.callback", "calls": 1193,
                       "self_s": 0.2335}


def test_ledger_spread_is_median_and_inclusive_quartiles():
    assert bench_capture.spread([5.0]) == {
        "median": 5.0, "q1": 5.0, "q3": 5.0, "iqr": 0.0}
    assert bench_capture.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}


def _ledger(inv_per_s, p50_ms, failed=0):
    return {"workloads": {"serve-http": {
        "metrics": {"inv_per_s": {"median": inv_per_s},
                    "p50_ms": {"median": p50_ms}},
        "attempted": 100, "failed": failed,
    }}}


def test_ledger_compare_flags_only_moves_past_a_bound():
    spec = {
        "workloads": [{"name": "serve-http"}, {"name": "grid-closed"}],
        "end_to_end": [
            {"name": "inv_per_s", "better": "higher", "bound": 0.25},
            {"name": "p50_ms", "better": "lower", "bound": 0.25},
        ],
    }
    base = _ledger(1000.0, 1.0)
    assert bench_capture.compare_ledgers(base, _ledger(1400.0, 1.2),
                                         spec) == []
    worse = bench_capture.compare_ledgers(base, _ledger(700.0, 1.3), spec)
    assert len(worse) == 2
    assert "inv_per_s" in worse[0] and "p50_ms" in worse[1]
    failing = bench_capture.compare_ledgers(base, _ledger(1000.0, 1.0, 1),
                                            spec)
    assert len(failing) == 1 and "failed checks" in failing[0]
