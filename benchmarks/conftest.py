"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures; each prints the same
rows/series the paper reports.  ``REPRO_SCALE=full`` increases repeats and
DRL training budgets (overnight-scale); the default ``fast`` keeps the whole
suite in tens of minutes on a laptop.

MLCR training results are cached in-process (keyed by workload family, pool
capacity and config), so benchmarks that share a trained policy -- fig8,
fig9, fig10 -- only pay for training once per session.

A regression guard compares every micro-benchmark's *minimum* round time
against ``bench_baseline.json`` (written by ``tools/bench_capture.py``)
and fails on a >30% slowdown; set ``REPRO_BENCH_GUARD=off`` to disable it
(the capture tool does so while regenerating the baseline).  The min --
not the mean -- is guarded because shared/virtualized hosts add steal
time that inflates the mean unboundedly under load, while the fastest of
hundreds of rounds lands in a quiet slice and only moves when the code
itself slows down.

OpenBLAS is pinned to one thread (unless ``OPENBLAS_NUM_THREADS`` is
already set) before anything imports numpy: its default thread pool
makes the DRL micro-benchmarks' small matrix products several times
slower on a 2-vCPU host, with no change in results.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from repro.experiments.common import ExperimentScale  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "bench_baseline.json"

#: Allowed slowdown over the captured baseline mean before the guard fails.
REGRESSION_FACTOR = 1.30


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return ExperimentScale.from_env()


@pytest.fixture
def emit(capsys):
    """Print an experiment report, bypassing pytest's output capture.

    The benchmark harness's contract is to *print the rows/series the paper
    reports*; disabling capture keeps the tables visible in plain
    ``pytest benchmarks/ --benchmark-only`` runs (and in teed logs).
    """

    def _emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _emit


@pytest.fixture(scope="session")
def bench_baseline():
    """Captured baselines, ``{test_name: min_seconds}`` (may be {})."""
    if not BASELINE_PATH.exists():
        return {}
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(autouse=True)
def bench_regression_guard(request, bench_baseline):
    """Fail any benchmark whose min round regressed >30% past baseline.

    Applies only to tests that used the ``benchmark`` fixture and have an
    entry in ``bench_baseline.json``; absolute-threshold asserts inside the
    tests still provide a backstop for unbaselined benchmarks.  A test can
    opt out of the guard with ``benchmark.extra_info["no_guard"] = True``
    (for timings so small that load jitter exceeds the band); the capture
    tool reads the same flag from the benchmark JSON and keeps such tests
    out of the baseline entirely.
    """
    # Resolve the benchmark fixture up front: it is no longer retrievable
    # once the test's own fixtures have been torn down.
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if benchmark is None:
        return
    # Stamp the process's peak RSS into the benchmark record (Linux
    # ru_maxrss is KB).  The capture tool runs each bench file in its own
    # cold process and harvests this into ``{name}[rss_mb]`` baseline
    # entries, so per-file memory regressions gate in its --compare mode
    # (same cold-process conditions).  Recorded before the guard-off check
    # on purpose: capture runs with the guard disabled.
    try:
        import resource

        benchmark.extra_info["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    except (ImportError, AttributeError):  # pragma: no cover - non-POSIX
        pass
    if os.environ.get("REPRO_BENCH_GUARD", "").lower() in ("off", "0"):
        return
    if getattr(benchmark, "extra_info", {}).get("no_guard"):
        return
    baseline_min = bench_baseline.get(request.node.name)
    if baseline_min is None:
        return
    try:
        observed = benchmark.stats["min"]
    except (TypeError, KeyError, AttributeError):
        return  # benchmark disabled/skipped: nothing was measured
    allowed = baseline_min * REGRESSION_FACTOR
    if observed > allowed:
        pytest.fail(
            f"{request.node.name}: min {observed * 1e3:.3f} ms regressed "
            f"past {REGRESSION_FACTOR:.2f}x baseline "
            f"({baseline_min * 1e3:.3f} ms -> allowed "
            f"{allowed * 1e3:.3f} ms); if intentional, refresh with "
            f"`python tools/bench_capture.py`"
        )
