"""Micro-benchmark for the multi-lane simulator kernel (not a paper figure).

Grid sweeps spend their time running many independent ``(scheduler,
workload, seed, capacity)`` cells; the lane kernel runs a batch of them
over one shared arrival table instead of paying the full event-loop
machinery per cell.  The sequential side of every entry is the reference
``ClusterSimulator`` (``evaluate_scheduler`` / ``run_stream``).  Four
entries:

* ``test_lane_kernel_8_lanes`` -- the original 8-cell batch (the four
  PR-4 closed-form schedulers x two capacities), kept byte-compatible
  with its historical baseline entry; pins the >= 3x speedup.
* ``test_lane_kernel_closed_form_registry`` -- seven closed-form
  registry schedulers (adds zygote / walways / offline) x two
  capacities; pins >= 3x over the sequential per-cell path.
* ``test_lane_kernel_scripted`` -- lookahead / mpc / lending, whose
  rules scan candidates and attach proactive actions per arrival, plus
  faascache.  The rules stay Python, so the margin over the sequential
  driver is thin: parity is asserted, the timing is recorded
  ``no_guard`` (excluded from the baseline guard) with a >= 1x floor.
* ``test_stream_lane_replay`` -- the chunked streaming lane path
  (``run_stream_lanes``) vs per-cell sequential ``run_stream`` on the
  stream family's closed-form schedulers; pins the >= 3x speedup the
  acceptance criteria require.

Every entry asserts byte-identical summaries before timing means
anything (the ``lanes_vs_sequential`` / ``streaming_vs_materialized``
oracles guard the same property over wider grids).
"""

import time

from repro.cluster.lanes import (
    SCHEDULER_CLASS_NAMES,
    LaneKernel,
    LaneSpec,
    run_stream_lanes,
)
from repro.experiments.common import evaluate_scheduler
from repro.experiments.parallel import (
    GridTask,
    build_scheduler,
    cached_arrival_table,
    cached_workload,
)

#: The original 8-cell batch: the four PR-4 closed-form schedulers x two
#: pool capacities -- pinned explicitly (not derived from the registry) so
#: the historical ``bench_baseline.json`` entry keeps measuring the same
#: work as the registry grows.
CELLS = [
    GridTask(scheduler=s, workload="LO-Sim", seed=0,
             pool_label="Bench", capacity_mb=c)
    for s in ("coldonly", "greedy", "keepalive", "lru")
    for c in (800.0, 4000.0)
]

#: Seven closed-form registry schedulers x two capacities (zygote,
#: walways, offline included) -- pinned like ``CELLS`` so the stored
#: baseline keeps measuring the same cells when a scheduler's rule
#: changes.
CLOSED_FORM_CELLS = [
    GridTask(scheduler=s, workload="LO-Sim", seed=0,
             pool_label="Bench", capacity_mb=c)
    for s in ("coldonly", "greedy", "keepalive", "lru", "offline",
              "walways", "zygote")
    for c in (800.0, 4000.0)
]

#: Four lanes x two capacities, pinned likewise: the lookahead, mpc and
#: lending rules plus faascache, kept in this entry so its stored
#: baseline measures the same cells.
SCRIPTED_CELLS = [
    GridTask(scheduler=s, workload="LO-Sim", seed=0,
             pool_label="Bench", capacity_mb=c)
    for s in ("faascache", "lending", "lookahead", "mpc")
    for c in (800.0, 4000.0)
]

assert {task.scheduler for task in CLOSED_FORM_CELLS + SCRIPTED_CELLS} == (
    set(SCHEDULER_CLASS_NAMES)
)

#: Stream-lane entry: the stream family's default schedulers (all
#: closed-form) over a mid-size Azure-like trace.
STREAM_SCHEDULERS = ("lru", "keepalive", "greedy")
STREAM_FUNCTIONS = 100
STREAM_INVOCATIONS = 8000


def _kernel_batch(cells):
    specs = [
        LaneSpec(
            scheduler=task.scheduler,
            table=cached_arrival_table(task.workload, task.seed),
            capacity_mb=task.capacity_mb,
        )
        for task in cells
    ]
    return LaneKernel(specs).run()


def _sequential_cell(task):
    """One cell on the sequential simulator: ``(method, summary)``."""
    outcome = evaluate_scheduler(
        build_scheduler(task.scheduler),
        cached_workload(task.workload, task.seed),
        task.capacity_mb,
    )
    return outcome.method, outcome.result.telemetry.summary()


def _sequential_floor(cells, repeats=2):
    """Best-of-N sequential wall time over the same cells."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = [_sequential_cell(task) for task in cells]
        best = min(best, time.perf_counter() - t0)
    return best, results


def _assert_parity(sequential, results):
    """The speed means nothing if the cells drift."""
    for (method, summary), result in zip(sequential, results):
        assert result.method == method
        assert list(result.summary.items()) == list(summary.items())


def _warm_memos(cells):
    for task in cells:
        cached_workload(task.workload, task.seed)
        cached_arrival_table(task.workload, task.seed)


def test_lane_kernel_8_lanes(benchmark, emit):
    """8-lane kernel batch vs the sequential per-cell path (>= 3x)."""
    _warm_memos(CELLS)
    sequential_s, sequential = _sequential_floor(CELLS)
    results = benchmark(_kernel_batch, CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel: {len(CELLS)} cells, sequential "
        f"{sequential_s * 1e3:.1f} ms vs 8-lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0


def test_lane_kernel_closed_form_registry(benchmark, emit):
    """Every closed-form registry scheduler in one lane batch (>= 3x).

    The sequential side pays the full per-cell driver -- including
    Offline-Q's per-cell bootstrap rollout -- while the lane side shares
    one arrival table (and its cached bootstrap policy) across lanes.
    """
    _warm_memos(CLOSED_FORM_CELLS)
    sequential_s, sequential = _sequential_floor(CLOSED_FORM_CELLS)
    results = benchmark(_kernel_batch, CLOSED_FORM_CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel (closed-form registry): {len(CLOSED_FORM_CELLS)} "
        f"cells, sequential {sequential_s * 1e3:.1f} ms vs lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0


def test_lane_kernel_scripted(benchmark, emit):
    """Lookahead, MPC, lending and FaasCache lanes: the costliest rules
    (candidate scans, forecasts, donor picks) on the shared kernel
    machinery.  Parity is the contract; timing is informational
    (``no_guard``: the rules stay Python, so the margin is too thin to
    gate on under load jitter)."""
    benchmark.extra_info["no_guard"] = True
    _warm_memos(SCRIPTED_CELLS)
    sequential_s, sequential = _sequential_floor(SCRIPTED_CELLS)
    results = benchmark(_kernel_batch, SCRIPTED_CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel (scripted): {len(SCRIPTED_CELLS)} cells, sequential "
        f"{sequential_s * 1e3:.1f} ms vs lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    # These lanes must never be slower than sequential by more than
    # jitter: the kernel machinery is strictly cheaper than the event loop.
    assert speedup >= 1.0


def _stream_lane_batch(cells, make_stream):
    return run_stream_lanes(cells, make_stream())


def test_stream_lane_replay(benchmark, emit):
    """Chunked streaming lane replay vs per-cell ``run_stream`` (>= 3x).

    One shared stream pass (lowered once into columnar chunks) against
    the stream family's sequential driver rebuilding and replaying the
    stream per cell -- the ``repro experiment stream --lanes`` speedup.
    """
    from repro.cluster.simulator import ClusterSimulator, SimulationConfig
    from repro.experiments.ext_stream_replay import (
        derive_capacity_mb,
        trace_config,
    )
    from repro.workloads.azure import AzureTraceGenerator

    generator = AzureTraceGenerator(
        trace_config(STREAM_FUNCTIONS, STREAM_INVOCATIONS)
    )

    def make_stream():
        return generator.stream(seed=0)

    capacity = derive_capacity_mb(make_stream())
    cells = [(key, capacity) for key in STREAM_SCHEDULERS]

    def run_stream_cell(key):
        scheduler = build_scheduler(key)
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=capacity,
                             bounded_telemetry=True),
            scheduler.make_eviction_policy(),
        )
        result = sim.run_stream(make_stream(), scheduler)
        return result.scheduler_name, result.summary()

    sequential = [run_stream_cell(k) for k in STREAM_SCHEDULERS]  # warm
    sequential_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        sequential = [run_stream_cell(k) for k in STREAM_SCHEDULERS]
        sequential_s = min(sequential_s, time.perf_counter() - t0)

    results = benchmark(_stream_lane_batch, cells, make_stream)
    _assert_parity(sequential, results)

    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"stream lanes: {len(cells)} cells x {STREAM_INVOCATIONS} "
        f"arrivals, sequential {sequential_s * 1e3:.1f} ms vs lane pass "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
    assert speedup >= 3.0
