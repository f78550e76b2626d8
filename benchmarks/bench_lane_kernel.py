"""Micro-benchmark for the multi-lane simulator kernel (not a paper figure).

Grid sweeps spend their time running many independent ``(scheduler,
workload, seed, capacity)`` cells; the lane kernel runs a batch of them
over one shared arrival table instead of paying the full event-loop
machinery per cell.  The sequential side of every entry is the reference
``ClusterSimulator`` (``evaluate_scheduler`` / ``run_stream``).  Four
entries:

* ``test_lane_kernel_8_lanes`` -- the original 8-cell batch (the four
  PR-4 closed-form schedulers x two capacities), kept byte-compatible
  with its historical baseline entry.
* ``test_lane_kernel_closed_form_registry`` -- seven closed-form
  registry schedulers (adds zygote / walways / offline) x two
  capacities.
* ``test_lane_kernel_scripted`` -- lookahead / mpc / lending, whose
  rules scan candidates and attach proactive actions per arrival, plus
  faascache.  The rules stay Python, so the margin over the sequential
  driver is thin: parity is asserted, the timing is recorded
  ``no_guard`` (excluded from the baseline guard) with a >= 1x floor.
* ``test_stream_lane_replay`` -- the chunked streaming lane path
  (``run_stream_lanes``) vs per-cell sequential ``run_stream`` on the
  stream family's closed-form schedulers.

In every entry the two legs alternate round by round (the sequential
pass is the untimed setup of each lane round), and the ratio is of the
fastest round of each, so host drift hits both legs alike.  The ratio
is printed, not asserted: it moves whenever the sequential engine gets
faster, which is progress, not a lane regression.  What is gated is the
lane leg's own minimum round time, by the baseline guard of
``benchmarks/conftest.py`` against its ``bench_baseline.json`` entry
(each guarded entry has one; the test fails without it).

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
#: Interleaved (sequential, lane) rounds of the grid entries and of the
#: stream entry; each leg reports its fastest.
GRID_ROUNDS = 10
STREAM_ROUNDS = 5


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


def _interleaved(benchmark, cells):
    """Time the lane batch over ``cells`` with a sequential pass over the
    same cells as the untimed setup of each round.

    Both legs are warmed once, untimed.  Returns the fastest sequential
    pass, the last pass's ``(method, summary)`` pairs and the last lane
    batch's results.
    """
    _warm_memos(cells)
    _kernel_batch(cells)
    sequential = [_sequential_cell(task) for task in cells]
    sequential_times = []

    def sequential_round():
        t0 = time.perf_counter()
        sequential[:] = [_sequential_cell(task) for task in cells]
        sequential_times.append(time.perf_counter() - t0)
        return (cells,), {}

    results = benchmark.pedantic(
        _kernel_batch, setup=sequential_round, rounds=GRID_ROUNDS
    )
    return min(sequential_times), sequential, results


def _assert_parity(sequential, results):
    """The speed means nothing if the cells drift."""
    for (method, summary), result in zip(sequential, results):
        assert result.method == method
        assert list(result.summary.items()) == list(summary.items())


def _warm_memos(cells):
    for task in cells:
        cached_workload(task.workload, task.seed)
        cached_arrival_table(task.workload, task.seed)


def _assert_guarded(request, bench_baseline):
    """The lane leg's min round time is gated by the baseline guard: the
    test has its ``bench_baseline.json`` entry."""
    assert request.node.name in bench_baseline, (
        f"{request.node.name} has no bench_baseline.json entry; capture "
        "one with `python tools/bench_capture.py`"
    )


def test_lane_kernel_8_lanes(benchmark, emit, request, bench_baseline):
    """8-lane kernel batch vs the sequential per-cell path; the lane
    batch's min is gated by its baseline entry."""
    _assert_guarded(request, bench_baseline)
    sequential_s, sequential, results = _interleaved(benchmark, CELLS)
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel: {len(CELLS)} cells, sequential "
        f"{sequential_s * 1e3:.1f} ms vs 8-lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )


def test_lane_kernel_closed_form_registry(
    benchmark, emit, request, bench_baseline
):
    """Every closed-form registry scheduler in one lane batch; the lane
    batch's min is gated by its baseline entry.

    The sequential side pays the full per-cell driver -- including
    Offline-Q's per-cell bootstrap rollout -- while the lane side shares
    one arrival table (and its cached bootstrap policy) across lanes.
    """
    _assert_guarded(request, bench_baseline)
    sequential_s, sequential, results = _interleaved(
        benchmark, CLOSED_FORM_CELLS
    )
    _assert_parity(sequential, results)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"lane kernel (closed-form registry): {len(CLOSED_FORM_CELLS)} "
        f"cells, sequential {sequential_s * 1e3:.1f} ms vs lane batch "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )


def test_lane_kernel_scripted(benchmark, emit):
    """Lookahead, MPC, lending and FaasCache lanes: the costliest rules
    (candidate scans, forecasts, donor picks) on the shared kernel
    machinery.  Parity is the contract; timing is informational
    (``no_guard``: the rules stay Python, so the margin is too thin to
    gate on under load jitter)."""
    benchmark.extra_info["no_guard"] = True
    sequential_s, sequential, results = _interleaved(
        benchmark, SCRIPTED_CELLS
    )
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


def test_stream_lane_replay(benchmark, emit, request, bench_baseline):
    """Chunked streaming lane replay vs per-cell ``run_stream``; the lane
    pass's min is gated by its baseline entry.

    One shared stream pass (lowered once into columnar chunks) against
    the stream family's sequential driver rebuilding and replaying the
    stream per cell -- the ``repro experiment stream --lanes`` speedup.
    """
    _assert_guarded(request, bench_baseline)
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

    # Warm both legs, untimed.
    sequential = [run_stream_cell(k) for k in STREAM_SCHEDULERS]
    _stream_lane_batch(cells, make_stream)
    sequential_times = []

    def sequential_round():
        """The untimed setup of each lane round (as in _interleaved)."""
        t0 = time.perf_counter()
        sequential[:] = [run_stream_cell(k) for k in STREAM_SCHEDULERS]
        sequential_times.append(time.perf_counter() - t0)
        return (cells, make_stream), {}

    results = benchmark.pedantic(
        _stream_lane_batch, setup=sequential_round, rounds=STREAM_ROUNDS
    )
    _assert_parity(sequential, results)

    sequential_s = min(sequential_times)
    speedup = sequential_s / benchmark.stats["min"]
    emit(
        f"stream lanes: {len(cells)} cells x {STREAM_INVOCATIONS} "
        f"arrivals, sequential {sequential_s * 1e3:.1f} ms vs lane pass "
        f"{benchmark.stats['min'] * 1e3:.1f} ms ({speedup:.2f}x)"
    )
