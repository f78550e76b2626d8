"""Differential oracle harness: cross-check every promised equivalence.

The codebase carries a set of "fast path equals reference path" claims
accumulated over the performance PRs.  Each claim here becomes a named
*oracle* -- a self-contained check that runs both sides and compares
outcomes:

=========================  ==============================================
oracle                     equivalence checked
=========================  ==============================================
batch_vs_incremental       ``ClusterSimulator.run`` == ``load`` /
                           ``next_decision_point`` / ``apply_decision`` /
                           ``finish`` (identical per-invocation records)
global_vs_sharded          ``per_worker_pools`` on/off at unbounded
                           capacity (identical telemetry summary)
jobs_serial_vs_parallel    ``run_grid(jobs=1)`` == ``run_grid(jobs=2)``
                           (identical cell summaries)
fused_vs_unfused_qkv       fused ``(D, 3D)`` QKV projection == textbook
                           three-projection attention forward
float64_vs_float32         a trained float64 policy, round-tripped
                           through its policy file and served in
                           float64, picks the same greedy actions as its
                           float32 cast
sequential_vs_batched      ``MLCRTrainer.rollout`` (lockstep batched
                           episodes) == one one-lane ``rollout`` per
                           entry (equal outcomes, replay-buffer fill and
                           global step)
cached_vs_fresh            ``run_grid`` without a cache == with a cold
                           cache == with a warm cache (identical cell
                           summaries and report bytes; warm run is all
                           hits)
streaming_vs_materialized  ``ClusterSimulator.run_stream`` over a lazy
                           arrival stream == ``run`` over the
                           materialized workload (identical summaries
                           and per-invocation columns, for both a
                           wrapped FStartBench list and a chunk-
                           synthesized Azure stream), the window-merged
                           Azure stream == a straight-line concatenate-
                           and-sort of its chunk sources (equal
                           invocations, same spec objects), and chunked
                           ``run_stream_lanes`` == bounded-telemetry
                           ``run_stream`` for every registry scheduler
                           (byte-equal summaries)
serve_replay               a recorded ``repro.serve`` session (wall-
                           stamped arrivals, janitor pumps between
                           requests, a scheduler hot-swap) replayed
                           through a fresh engine makes byte-identical
                           decisions
lanes_vs_sequential        ``run_grid(lanes=8)`` lane-kernel cells ==
                           ``evaluate_scheduler`` (``ClusterSimulator``)
                           cells for every scheduler in the experiment
                           registry (derived, not hardcoded;
                           byte-identical summaries, proactive pre-warm
                           / lending blocks included), and for the
                           checked-in MLCR fixture policy run as a
                           policy cell
surrogate_vs_network       the distilled decision tree reproduces >= 99%
                           of the network's greedy actions on the
                           distillation trajectory, and mask-invalid
                           predictions fall back to the network
mpc_forecast_off           ``MPCScheduler(forecast=False)`` ==
                           ``KeepAliveScheduler`` (bit-identical
                           summaries and per-invocation columns: the
                           proactive half must be a pure overlay)
lend_budget_zero           ``PagurusLendingScheduler(lend_budget=0)`` ==
                           ``GreedyMatchScheduler`` (bit-identical
                           summaries and per-invocation columns)
offline_deterministic      ``fit_from_traces`` is shard-order
                           independent (bit-identical Q tables) and a
                           fitted :class:`OfflineQScheduler` replays a
                           fixed workload to bit-identical summaries
=========================  ==============================================

Runnable as the ``tests/test_verify_differential.py`` pytest suite and as
part of the standalone ``tools/verify_capture.py`` gate via
:func:`run_oracles`.
"""

from __future__ import annotations

import math
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.core.config import MLCRConfig
from repro.core.env import SchedulingEnv
from repro.core.mlcr import train_mlcr_scheduler
from repro.core.state import StateEncoder
from repro.core.trainer import EVAL_EPISODE_BASE, MLCRTrainer
from repro.drl.dqn import DQNConfig, masked_argmax
from repro.experiments.cache import ExperimentCache
from repro.experiments.parallel import GridResult, GridTask, run_grid
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.fstartbench import build_workload
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation, Workload

_REL_TOL = 1e-6


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one differential oracle."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        suffix = f" -- {self.detail}" if self.detail else ""
        return f"{self.name}: {status}{suffix}"


# ---------------------------------------------------------------------------
# Shared fixtures (self-contained: no test-suite imports)
# ---------------------------------------------------------------------------

def tiny_workload(seed: int = 0, n: int = 12) -> Workload:
    """A 12-invocation workload over two Table-II functions."""
    rng = np.random.default_rng(seed)
    specs = (function_by_id(1), function_by_id(4))
    invocations = [
        Invocation(
            invocation_id=i,
            spec=specs[i % 2],
            arrival_time=float(rng.uniform(0, 30)),
            execution_time_s=0.5,
        )
        for i in range(n)
    ]
    return Workload.from_invocations(f"diff-tiny{seed}", invocations)


def straight_line_merge(
    specs: Sequence, sources: Sequence[Iterable],
) -> List[Invocation]:
    """Reference for :func:`~repro.workloads.stream.merge_function_chunks`.

    Concatenates every source's ``(times, exec_times)`` chunks, stable-sorts
    the arrivals by ``(time, function index)`` and numbers them in that
    order: no windows, no frontiers, no per-chunk binning.
    """
    rows = [
        (time, index, exec_s)
        for index, source in enumerate(sources)
        for times, execs in source
        for time, exec_s in zip(times.tolist(), execs.tolist())
    ]
    rows.sort(key=lambda row: (row[0], row[1]))
    return [
        Invocation(invocation_id=i, spec=specs[index], arrival_time=time,
                   execution_time_s=exec_s)
        for i, (time, index, exec_s) in enumerate(rows)
    ]


def tiny_mlcr_config(**overrides) -> MLCRConfig:
    """A seconds-scale MLCR budget for the DRL oracles."""
    defaults = dict(
        n_slots=4,
        model_dim=8,
        head_hidden=8,
        n_episodes=2,
        demo_episodes=2,
        eval_every=2,
        eval_episodes=2,
        epsilon_decay_steps=50,
        dqn=DQNConfig(batch_size=4, buffer_capacity=256,
                      target_sync_every=10),
    )
    defaults.update(overrides)
    return MLCRConfig(**defaults)


def tiny_env() -> SchedulingEnv:
    """A small scheduling environment over :func:`tiny_workload` episodes."""
    return SchedulingEnv(
        workload_factory=lambda ep: tiny_workload(seed=ep % 3),
        sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
        encoder=StateEncoder(n_slots=4),
    )


def _summaries_equal(a: Dict[str, float], b: Dict[str, float]) -> Optional[str]:
    """First differing summary key, or ``None`` when equal."""
    if a.keys() != b.keys():
        return f"summary keys differ: {sorted(a)} vs {sorted(b)}"
    for key in a:
        va, vb = a[key], b[key]
        same = (
            math.isclose(va, vb, rel_tol=_REL_TOL, abs_tol=1e-9)
            if isinstance(va, float) or isinstance(vb, float)
            else va == vb
        )
        if not same:
            return f"summary[{key!r}]: {va!r} vs {vb!r}"
    return None


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_batch_vs_incremental() -> OracleResult:
    """Batch ``run()`` and the incremental API yield identical records."""
    name = "batch_vs_incremental"
    workload = build_workload("LO-Sim", seed=0)
    capacity = 2000.0

    batch_sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=capacity))
    batch = batch_sim.run(workload, GreedyMatchScheduler())

    inc_sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=capacity))
    scheduler = GreedyMatchScheduler()
    inc_sim.load(workload)
    while (ctx := inc_sim.next_decision_point()) is not None:
        inc_sim.apply_decision(
            scheduler.decide(ctx.pool, ctx.invocation, ctx.cost_model)
        )
    incremental = inc_sim.finish(scheduler_name=scheduler.name)

    want = batch.telemetry.records
    got = incremental.telemetry.records
    if len(want) != len(got):
        return OracleResult(
            name, False, f"record counts differ: {len(want)} vs {len(got)}"
        )
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return OracleResult(name, False, f"records diverge at event {i}: "
                                             f"{a} vs {b}")
    mismatch = _summaries_equal(batch.summary(), incremental.summary())
    if mismatch:
        return OracleResult(name, False, mismatch)
    return OracleResult(name, True, f"{len(want)} records identical")


def oracle_global_vs_sharded() -> OracleResult:
    """Global and per-worker pools agree at unbounded capacity."""
    name = "global_vs_sharded"
    workload = build_workload("LO-Sim", seed=0)

    def summary(per_worker: bool) -> Dict[str, float]:
        sim = ClusterSimulator(SimulationConfig(
            pool_capacity_mb=float("inf"), per_worker_pools=per_worker,
        ))
        return sim.run(workload, GreedyMatchScheduler()).summary()

    mismatch = _summaries_equal(summary(False), summary(True))
    if mismatch:
        return OracleResult(name, False, mismatch)
    return OracleResult(name, True, "summaries identical")


def oracle_jobs_serial_vs_parallel() -> OracleResult:
    """``run_grid`` is byte-identical for jobs=1 and jobs=2."""
    name = "jobs_serial_vs_parallel"
    tasks = [
        GridTask(scheduler=key, workload="LO-Sim", seed=0,
                 pool_label="Fixed", capacity_mb=2000.0)
        for key in ("lru", "greedy", "keepalive")
    ]
    serial = run_grid(tasks, jobs=1)
    parallel = run_grid(tasks, jobs=2)
    for i, (a, b) in enumerate(zip(serial, parallel)):
        if a.method != b.method:
            return OracleResult(name, False,
                                f"cell {i} method: {a.method} vs {b.method}")
        if a.summary != b.summary:
            return OracleResult(name, False, f"cell {i} summaries differ")
    return OracleResult(name, True, f"{len(tasks)} cells identical")


def oracle_fused_vs_unfused_qkv() -> OracleResult:
    """The fused QKV projection computes the textbook unfused attention."""
    from repro.drl.attention import MultiHeadAttention, _softmax

    name = "fused_vs_unfused_qkv"
    mha = MultiHeadAttention(model_dim=8, n_heads=2,
                             rng=np.random.default_rng(11))
    x = np.random.default_rng(1).normal(size=(2, 5, 8))
    d = mha.model_dim
    w = mha.w_qkv.value
    b = mha.b_qkv.value

    def split(t: np.ndarray) -> np.ndarray:
        bs, n, _ = t.shape
        return t.reshape(bs, n, mha.n_heads, mha.head_dim).transpose(0, 2, 1, 3)

    q = split(x @ w[:, :d] + b[:d])
    k = split(x @ w[:, d:2 * d] + b[d:2 * d])
    v = split(x @ w[:, 2 * d:] + b[2 * d:])
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(mha.head_dim)
    context = _softmax(scores, axis=-1) @ v
    context = context.transpose(0, 2, 1, 3).reshape(2, 5, d)
    expected = context @ mha.w_o.weight.value + mha.w_o.bias.value

    got = mha.forward(x)
    max_err = float(np.abs(got - expected).max())
    if max_err > 1e-12:
        return OracleResult(name, False, f"max |fused - unfused| = {max_err:g}")
    return OracleResult(name, True, f"max error {max_err:g}")


def oracle_float64_vs_float32() -> OracleResult:
    """A trained float64 policy, served from its policy file, and its
    float32 cast pick the same greedy actions."""
    from repro.core.persistence import load_scheduler, save_scheduler

    name = "float64_vs_float32"
    cfg = tiny_mlcr_config(dtype="float64", demo_episodes=1, eval_episodes=1)
    scheduler, _ = train_mlcr_scheduler(
        workload_factory=lambda ep: tiny_workload(seed=ep % 2),
        sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
        config=cfg,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = save_scheduler(scheduler, cfg, Path(tmp) / "policy.npz")
        served64 = load_scheduler(path)
    net64 = served64.agent.online
    if net64.dtype != np.dtype("float64"):
        return OracleResult(
            name, False, f"float64 policy served as {net64.dtype}"
        )

    # Cast the served network to float32 and compare greedy decisions.
    trainer32 = MLCRTrainer(tiny_env(), replace(cfg, dtype="float32"))
    net32 = trainer32.agent.online
    net32.load_state_dict({
        key: value.astype(np.float32)
        for key, value in net64.state_dict().items()
    })
    rng = np.random.default_rng(17)
    states = rng.normal(size=(64, net64.state_dim))
    masks = rng.random((64, net64.action_dim)) < 0.7
    masks[:, -1] = True  # cold start always valid
    with net64.inference(), net32.inference():
        q64 = net64.forward(states)
        q32 = net32.forward(states)
    a64 = masked_argmax(q64, masks)
    a32 = masked_argmax(q32.astype(np.float64), masks)
    diverged = int((a64 != a32).sum())
    if diverged:
        return OracleResult(
            name, False, f"{diverged}/64 greedy decisions differ"
        )
    return OracleResult(name, True, "64/64 greedy decisions identical")


def oracle_sequential_vs_batched() -> OracleResult:
    """A lockstep ``MLCRTrainer.rollout`` agrees with one one-lane
    ``rollout`` per entry."""
    name = "sequential_vs_batched"
    kinds = ["greedy", "exact", "eval", "eval"]
    episodes = [0, 1, EVAL_EPISODE_BASE, EVAL_EPISODE_BASE + 1]

    trainers = {
        batched: MLCRTrainer(tiny_env(), tiny_mlcr_config())
        for batched in (True, False)
    }
    outcomes = {
        True: trainers[True].rollout(kinds, episodes),
        False: [
            trainers[False].rollout([kind], [ep])[0]
            for kind, ep in zip(kinds, episodes)
        ],
    }

    for i, (got, want) in enumerate(zip(outcomes[True], outcomes[False])):
        if got != want:
            return OracleResult(
                name, False,
                f"episode {i} ({kinds[i]}): batched {got} vs sequential {want}"
            )
    fill = (len(trainers[True].agent.buffer), len(trainers[False].agent.buffer))
    if fill[0] != fill[1]:
        return OracleResult(
            name, False, f"replay fill differs: {fill[0]} vs {fill[1]}"
        )
    steps = (trainers[True]._global_step, trainers[False]._global_step)
    if steps[0] != steps[1]:
        return OracleResult(
            name, False, f"global step differs: {steps[0]} vs {steps[1]}"
        )
    return OracleResult(
        name, True,
        f"{len(kinds)} episodes identical, replay fill {fill[0]}"
    )


def oracle_cached_vs_fresh() -> OracleResult:
    """Grid cells and reports are bit-identical fresh, cold- and
    warm-cached."""
    name = "cached_vs_fresh"
    tasks = [
        GridTask(scheduler=key, workload="LO-Sim", seed=seed,
                 pool_label="Fixed", capacity_mb=2000.0)
        for key in ("lru", "greedy")
        for seed in (0, 1)
    ]
    fresh = run_grid(tasks, jobs=1)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ExperimentCache(root=Path(tmp), enabled=True)
        cold = run_grid(tasks, jobs=1, cache=cache)
        cold_misses = cache.misses
        warm = run_grid(tasks, jobs=1, cache=cache)
        warm_hits = cache.hits
    if cold_misses != len(tasks):
        return OracleResult(
            name, False, f"cold run: {cold_misses} misses, "
                         f"expected {len(tasks)}"
        )
    if warm_hits != len(tasks):
        return OracleResult(
            name, False, f"warm run: {warm_hits} hits, expected {len(tasks)}"
        )
    for label, cells in (("cold", cold), ("warm", warm)):
        for i, (a, b) in enumerate(zip(fresh, cells)):
            if a.method != b.method or a.summary != b.summary:
                return OracleResult(
                    name, False, f"{label} cell {i} differs from fresh"
                )
    reports = {label: GridResult(cells=cells).report()
               for label, cells in (("fresh", fresh), ("cold", cold),
                                    ("warm", warm))}
    if len(set(reports.values())) != 1:
        return OracleResult(name, False, "rendered reports differ")
    return OracleResult(
        name, True,
        f"{len(tasks)} cells identical fresh/cold/warm, report bytes equal"
    )


def oracle_streaming_vs_materialized() -> OracleResult:
    """``run_stream`` and ``run`` agree record-for-record.

    Covers both stream sources: an FStartBench workload wrapped by
    :func:`~repro.workloads.stream.stream_from_workload` (pure feed-path
    check) and a chunk-synthesized
    :meth:`~repro.workloads.azure.AzureTraceGenerator.stream` against its
    own materialized ``generate()`` (feed path plus arrival synthesis),
    each under two schedulers.  A second leg holds the window-merged Azure
    stream, at one window and at the benchmark's 2,000-function shape,
    to :func:`straight_line_merge` over its own chunk sources.  A third
    leg pins the chunked streaming *lane* replay: :func:`~repro.cluster.lanes.run_stream_lanes` over
    the Azure stream must be byte-equal (exact ``==``) to the sequential
    bounded-telemetry ``run_stream`` for every scheduler in the
    experiment registry.
    """
    from repro.schedulers.lru import LRUScheduler
    from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator
    from repro.workloads.stream import stream_from_workload

    name = "streaming_vs_materialized"
    azure = AzureTraceGenerator(AzureTraceConfig(
        n_functions=20, n_invocations=400, duration_s=240.0,
    ))
    pairs = [
        ("LO-Sim", build_workload("LO-Sim", seed=0),
         lambda wl=None: stream_from_workload(wl)),
        ("Azure", azure.generate(seed=0), lambda wl=None: azure.stream(seed=0)),
    ]
    schedulers = [GreedyMatchScheduler, LRUScheduler]
    checked = 0
    for label, workload, make_stream in pairs:
        for scheduler_cls in schedulers:
            batch_sim = ClusterSimulator(
                SimulationConfig(pool_capacity_mb=2000.0)
            )
            batch = batch_sim.run(workload, scheduler_cls())
            stream_sim = ClusterSimulator(
                SimulationConfig(pool_capacity_mb=2000.0)
            )
            streamed = stream_sim.run_stream(
                make_stream(workload), scheduler_cls()
            )
            mismatch = _summaries_equal(batch.summary(), streamed.summary())
            if mismatch:
                return OracleResult(
                    name, False,
                    f"{label}/{scheduler_cls.__name__}: {mismatch}",
                )
            want = batch_sim.telemetry.invocation_columns()
            got = stream_sim.telemetry.invocation_columns()
            for fld in want._fields:
                a, b = list(getattr(want, fld)), list(getattr(got, fld))
                if a != b:
                    return OracleResult(
                        name, False,
                        f"{label}/{scheduler_cls.__name__}: "
                        f"column {fld!r} diverges",
                    )
            checked += len(want.invocation_id)

    # Second leg: the window merge against the straight-line reference.
    from repro.experiments.ext_stream_replay import trace_config

    merged = 0
    for stream in (azure.stream(seed=0),
                   AzureTraceGenerator(trace_config(2000, 20_000)).stream(0)):
        want = straight_line_merge(stream.specs, stream.chunk_sources())
        got = list(stream)
        if got != want or any(a.spec is not b.spec
                              for a, b in zip(got, want)):
            return OracleResult(
                name, False,
                f"Azure {len(stream.specs)} functions: window merge "
                f"differs from the straight-line reference",
            )
        merged += len(got)

    # Third leg: chunked streaming *lane* replay.  Every registry
    # scheduler replays the Azure stream once through the sequential
    # bounded-telemetry ``run_stream`` and once through
    # ``run_stream_lanes`` (all lanes sharing one chunked stream);
    # summaries must be byte-equal.
    from repro.cluster.lanes import run_stream_lanes
    from repro.experiments.parallel import SCHEDULER_FACTORIES, build_scheduler

    capacity_mb = 2000.0
    lane_cells = [(key, capacity_mb) for key in SCHEDULER_FACTORIES]
    lane_results = run_stream_lanes(
        lane_cells, azure.stream(seed=0), chunk_size=64
    )
    for (key, _cap), lane in zip(lane_cells, lane_results):
        scheduler = build_scheduler(key)
        stream_sim = ClusterSimulator(
            SimulationConfig(
                pool_capacity_mb=capacity_mb, bounded_telemetry=True,
            ),
            scheduler.make_eviction_policy(),
        )
        streamed = stream_sim.run_stream(azure.stream(seed=0), scheduler)
        if lane.method != streamed.scheduler_name:
            return OracleResult(
                name, False,
                f"stream-lane {key}: method {lane.method!r} vs "
                f"{streamed.scheduler_name!r}",
            )
        want_summary = streamed.summary()
        if list(want_summary.items()) != list(lane.summary.items()):
            diff = [k for k in want_summary
                    if want_summary[k] != lane.summary.get(k)]
            return OracleResult(
                name, False,
                f"stream-lane {key}: summaries differ at {diff}",
            )
    return OracleResult(
        name, True,
        f"{checked} records identical across "
        f"{len(pairs)}x{len(schedulers)} runs; "
        f"{merged} merged arrivals equal the straight-line reference; "
        f"{len(lane_cells)} stream-lane summaries byte-equal",
    )


def oracle_serve_replay() -> OracleResult:
    """A served session's decisions equal their deterministic replay.

    Drives a :class:`~repro.serve.engine.ServeEngine` headlessly with a
    scripted wall clock standing in for real time: bursty arrivals over
    four Table-II functions, janitor pumps between requests (including one
    long quiet period that scales the pool to zero through the keep-alive
    TTL) and a mid-session scheduler hot-swap.  The in-memory recording is
    then replayed through a fresh engine -- no janitor, no wall clock --
    and every decision field is compared, plus the two sessions' telemetry
    summaries after drain.
    """
    from repro.cluster.eventloop import VirtualClock
    from repro.serve.engine import ServeEngine
    from repro.serve.janitor import Janitor
    from repro.serve.recorder import (
        DecisionRecorder,
        read_recording,
        replay_recording,
    )

    name = "serve_replay"
    recorder = DecisionRecorder()
    wall = VirtualClock()
    config = SimulationConfig(
        pool_capacity_mb=3000.0, n_workers=3, worker_concurrency=2,
        verify=True,
    )
    engine = ServeEngine(
        config, scheduler="keepalive", wall=wall, keepalive_ttl_s=8.0,
        recorder=recorder,
    )
    janitor = Janitor(engine)
    functions = ("hello-python", "hello-java", "analytics-numpy",
                 "ml-inference")
    rng = np.random.default_rng(7)
    t = 0.0
    for i in range(48):
        # Bursty arrivals: mostly sub-second gaps, occasionally a pause
        # longer than the keep-alive TTL (forcing TTL expiry + scale to
        # zero between requests).
        t += float(rng.uniform(0.05, 0.8)) if i % 16 else 10.0
        # Janitor ticks fire between requests at wall cadence; they must
        # not change any decision.
        while wall.now + 0.5 < t:
            wall.advance_to(wall.now + 0.5)
            janitor.tick()
        wall.advance_to(t)
        engine.submit(functions[i % len(functions)])
        if i == 23:
            engine.swap_scheduler("greedy")
    served = engine.drain()

    report = replay_recording(recorder.lines(), verify=True)
    if not report.ok:
        return OracleResult(name, False, str(report.divergence))
    if report.n_decisions != 48 or report.n_swaps != 1:
        return OracleResult(
            name, False,
            f"replay covered {report.n_decisions} decisions / "
            f"{report.n_swaps} swaps, expected 48 / 1",
        )

    # Replays must also reproduce the session-level telemetry summary.
    _header, entries = read_recording(recorder.lines())
    replay_engine = ServeEngine(
        config, scheduler="keepalive", keepalive_ttl_s=8.0,
    )
    for entry in entries:
        if "swap" in entry:
            replay_engine.swap_scheduler(entry["swap"])
        else:
            replay_engine.submit(entry["fn"], exec_time_s=entry["exec"],
                                 now=entry["t"])
    replayed = replay_engine.drain()
    mismatch = _summaries_equal(served.summary(), replayed.summary())
    if mismatch:
        return OracleResult(name, False, mismatch)
    return OracleResult(
        name, True,
        "48 decisions + 1 swap byte-identical, summaries equal",
    )


#: The checked-in tiny MLCR policy (``tests/fixtures/mlcr``) that the
#: ``lanes_vs_sequential`` oracle runs as a policy cell.
MLCR_FIXTURE_POLICY = (
    Path(__file__).resolve().parents[3] / "tests" / "fixtures" / "mlcr"
    / "policy.npz"
)


def oracle_lanes_vs_sequential() -> OracleResult:
    """Lane-kernel grid cells are byte-identical to sequential ones.

    The scheduler list is derived from the *experiment registry*
    (``SCHEDULER_FACTORIES``), not a hardcoded grid, so a newly registered
    scheduler is picked up automatically -- and the oracle fails loudly
    (``run_grid`` raises) if a registry key ever lacks a lane path.
    Every registry scheduler, and the MLCR fixture policy
    (:data:`MLCR_FIXTURE_POLICY`, registered by digest and run as a
    policy cell), runs over two workload draws and two pool capacities,
    once through the sequential simulator
    (:func:`~repro.experiments.common.evaluate_scheduler`, the policy
    loaded from its file) and once through ``run_grid(lanes=8)``,
    comparing method and summary with ``==`` (bit equality, not
    tolerance) -- the lane kernel's whole contract, the proactive
    pre-warm / lending telemetry blocks included.
    """
    from repro.core.persistence import load_scheduler
    from repro.experiments.common import (
        evaluate_scheduler,
        register_policy_file,
    )
    from repro.experiments.parallel import (
        MLCR_KEY,
        SCHEDULER_FACTORIES,
        build_scheduler,
        cached_workload,
    )

    name = "lanes_vs_sequential"
    digest = register_policy_file(MLCR_FIXTURE_POLICY.read_bytes())
    cells = [(key, None) for key in SCHEDULER_FACTORIES]
    cells.append((MLCR_KEY, digest))
    tasks = [
        GridTask(scheduler=key, workload=workload, seed=seed,
                 pool_label="Fixed", capacity_mb=capacity, policy=policy)
        for key, policy in cells
        for workload, seed in (("LO-Sim", 0), ("HI-Var", 1))
        for capacity in (800.0, 4000.0)
    ]
    laned = run_grid(tasks, jobs=1, lanes=8)
    for i, (task, b) in enumerate(zip(tasks, laned)):
        scheduler = (load_scheduler(MLCR_FIXTURE_POLICY) if task.policy
                     else build_scheduler(task.scheduler))
        a = evaluate_scheduler(
            scheduler,
            cached_workload(task.workload, task.seed),
            task.capacity_mb,
        )
        summary = a.result.telemetry.summary()
        if a.method != b.method:
            return OracleResult(
                name, False, f"cell {i} method: {a.method} vs {b.method}"
            )
        if list(summary.items()) != list(b.summary.items()):
            diff = [k for k in summary if summary[k] != b.summary.get(k)]
            return OracleResult(
                name, False,
                f"cell {i} ({task.scheduler}/{task.workload}) "
                f"summaries differ at {diff}",
            )
    return OracleResult(
        name, True,
        f"{len(tasks)} cells ({len(SCHEDULER_FACTORIES)} registry "
        f"schedulers + the MLCR fixture policy) byte-identical at 8 lanes",
    )


def oracle_surrogate_vs_network() -> OracleResult:
    """The distilled tree matches the network's greedy policy >= 99 %.

    Trains a tiny MLCR policy, distills it over its own trajectory
    (:func:`~repro.drl.distill.distill_scheduler`), and checks: (a) the
    in-sample agreement bound, (b) that a simulated run with the surrogate
    attached (auditing every decision) stays within the same disagreement
    budget and folds the audit counters into the telemetry summary, and
    (c) that a mask forbidding the tree's prediction triggers the
    network-fallback path instead of an invalid action.
    """
    from repro.drl.distill import distill_scheduler

    name = "surrogate_vs_network"
    threshold = 0.99
    scheduler, _ = train_mlcr_scheduler(
        workload_factory=lambda ep: tiny_workload(seed=ep % 3),
        sim_config=SimulationConfig(pool_capacity_mb=10_000.0),
        config=tiny_mlcr_config(),
    )
    workloads = [tiny_workload(seed=s, n=24) for s in range(3)]
    surrogate, report = distill_scheduler(scheduler, workloads, 10_000.0)
    if report.agreement < threshold:
        return OracleResult(
            name, False,
            f"in-sample agreement {report.agreement:.3f} < {threshold} "
            f"({report.n_states} states, {report.n_nodes} nodes)",
        )

    # (b) Live run with every decision audited against the network.
    scheduler.attach_surrogate(surrogate, audit_every=1)
    scheduler.reset()
    sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=10_000.0),
                           scheduler.make_eviction_policy())
    result = sim.run(tiny_workload(seed=0, n=24), scheduler)
    audits = scheduler.surrogate_audits
    disagreements = scheduler.surrogate_disagreements
    if audits == 0:
        return OracleResult(name, False, "no decisions were audited")
    if disagreements > (1.0 - threshold) * audits + 1:
        return OracleResult(
            name, False,
            f"live disagreements {disagreements}/{audits} exceed budget",
        )
    summary = result.summary()
    if summary.get("surrogate_audits") != float(audits):
        return OracleResult(
            name, False, "audit counters missing from telemetry summary"
        )

    # (c) Graceful fallback: forbid the tree's prediction via the mask.
    state0 = np.zeros(surrogate.state_dim)
    predicted = surrogate.predict(state0)
    mask = np.ones(scheduler.agent.action_dim, dtype=bool)
    mask[predicted] = False
    if surrogate.act(state0, mask) is not None:
        return OracleResult(
            name, False, "mask-invalid prediction did not signal fallback"
        )
    before = scheduler.surrogate_fallbacks
    action = scheduler.act_surrogate(state0, mask)
    if scheduler.surrogate_fallbacks != before + 1 or not mask[action]:
        return OracleResult(
            name, False, "scheduler fallback did not route to the network"
        )
    scheduler.detach_surrogate()
    return OracleResult(
        name, True,
        f"agreement {report.agreement:.3f} over {report.n_states} states "
        f"({report.n_nodes} nodes); live audit {disagreements}/{audits} "
        "disagreements; fallback ok",
    )


def _run_scheduler(scheduler, workload, capacity_mb: float = 1500.0):
    """One simulator run with the scheduler's own eviction pairing.

    Returns ``(simulator, result)`` so oracles can compare both the
    summary and the raw per-invocation columns.
    """
    scheduler.reset()
    sim = ClusterSimulator(
        SimulationConfig(pool_capacity_mb=capacity_mb),
        scheduler.make_eviction_policy(),
    )
    result = sim.run(workload, scheduler)
    return sim, result


def _columns_equal(a, b) -> Optional[str]:
    """First diverging invocation-column field, or ``None`` when equal."""
    for fld in a._fields:
        if list(getattr(a, fld)) != list(getattr(b, fld)):
            return f"column {fld!r} diverges"
    return None


def _degenerate_vs_baseline(
    name: str, degenerate, baseline
) -> OracleResult:
    """Bit-compare a knob-disabled proactive policy against its baseline
    over two workload draws."""
    checked = 0
    for workload_name, seed in (("LO-Sim", 0), ("Peak", 1)):
        workload = build_workload(workload_name, seed=seed)
        sim_a, res_a = _run_scheduler(degenerate, workload)
        sim_b, res_b = _run_scheduler(baseline, workload)
        summary_a, summary_b = res_a.summary(), res_b.summary()
        if list(summary_a.items()) != list(summary_b.items()):
            diff = [k for k in summary_a
                    if summary_a.get(k) != summary_b.get(k)]
            return OracleResult(
                name, False,
                f"{workload_name}: summaries differ at {diff or 'keys'}",
            )
        mismatch = _columns_equal(
            sim_a.telemetry.invocation_columns(),
            sim_b.telemetry.invocation_columns(),
        )
        if mismatch:
            return OracleResult(name, False, f"{workload_name}: {mismatch}")
        checked += len(workload)
    return OracleResult(
        name, True, f"{checked} invocations bit-identical over 2 workloads"
    )


def oracle_mpc_forecast_off() -> OracleResult:
    """Forecast-disabled MPC is bit-identical to the keep-alive baseline."""
    from repro.schedulers.keepalive import KeepAliveScheduler
    from repro.schedulers.mpc import MPCScheduler

    return _degenerate_vs_baseline(
        "mpc_forecast_off",
        MPCScheduler(forecast=False),
        KeepAliveScheduler(),
    )


def oracle_lend_budget_zero() -> OracleResult:
    """Budget-zero lending is bit-identical to the greedy baseline."""
    from repro.schedulers.lending import PagurusLendingScheduler

    return _degenerate_vs_baseline(
        "lend_budget_zero",
        PagurusLendingScheduler(lend_budget=0),
        GreedyMatchScheduler(),
    )


def oracle_offline_deterministic() -> OracleResult:
    """Offline Q-learning is shard-order independent and replay-stable.

    Records a greedy reference trace, fits :func:`fit_from_traces` over
    the shards in two different orders (Q tables must be bit-identical),
    then serves the fitted policy through :class:`OfflineQScheduler`
    twice and demands bit-identical summaries and decision columns.
    """
    from repro.drl.offline import fit_from_traces, trace_lines_from_result
    from repro.schedulers.offline import OfflineQScheduler

    name = "offline_deterministic"
    workload = build_workload("LO-Sim", seed=0)
    _, reference = _run_scheduler(GreedyMatchScheduler(), workload,
                                  capacity_mb=float("inf"))
    lines = trace_lines_from_result(reference)
    half = len(lines) // 2
    shards = [lines[:half], lines[half:]]
    forward = fit_from_traces(shards)
    backward = fit_from_traces(list(reversed(shards)))
    if forward.states != backward.states:
        return OracleResult(name, False, "state sets differ across orders")
    if forward.q.tobytes() != backward.q.tobytes():
        return OracleResult(
            name, False, "Q tables differ across shard orders"
        )

    first_sim, first = _run_scheduler(OfflineQScheduler(forward), workload)
    second_sim, second = _run_scheduler(OfflineQScheduler(forward), workload)
    if list(first.summary().items()) != list(second.summary().items()):
        return OracleResult(name, False, "replay summaries differ")
    mismatch = _columns_equal(
        first_sim.telemetry.invocation_columns(),
        second_sim.telemetry.invocation_columns(),
    )
    if mismatch:
        return OracleResult(name, False, f"replay {mismatch}")
    return OracleResult(
        name, True,
        f"Q over {len(forward.states)} states bit-stable across shard "
        f"orders; {len(workload)}-invocation replay bit-identical",
    )


#: Registry of every differential oracle, in documentation order.
ORACLES: Dict[str, Callable[[], OracleResult]] = {
    "batch_vs_incremental": oracle_batch_vs_incremental,
    "global_vs_sharded": oracle_global_vs_sharded,
    "jobs_serial_vs_parallel": oracle_jobs_serial_vs_parallel,
    "fused_vs_unfused_qkv": oracle_fused_vs_unfused_qkv,
    "float64_vs_float32": oracle_float64_vs_float32,
    "sequential_vs_batched": oracle_sequential_vs_batched,
    "cached_vs_fresh": oracle_cached_vs_fresh,
    "streaming_vs_materialized": oracle_streaming_vs_materialized,
    "serve_replay": oracle_serve_replay,
    "lanes_vs_sequential": oracle_lanes_vs_sequential,
    "surrogate_vs_network": oracle_surrogate_vs_network,
    "mpc_forecast_off": oracle_mpc_forecast_off,
    "lend_budget_zero": oracle_lend_budget_zero,
    "offline_deterministic": oracle_offline_deterministic,
}


def run_oracles(
    names: Optional[Sequence[str]] = None,
) -> List[OracleResult]:
    """Run the selected (default: all) oracles; never raises.

    An oracle that throws is reported as a failed :class:`OracleResult`
    carrying the traceback tail, so one broken equivalence cannot hide
    the others.
    """
    results = []
    for oracle_name in (names if names is not None else list(ORACLES)):
        oracle = ORACLES[oracle_name]
        try:
            results.append(oracle())
        except Exception:
            tail = traceback.format_exc().strip().splitlines()[-1]
            results.append(OracleResult(oracle_name, False, f"raised: {tail}"))
    return results
