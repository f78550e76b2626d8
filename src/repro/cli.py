"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the FStartBench workload sets with their metrics.
``simulate``
    Run one scheduler over one workload at a chosen pool level.
``train``
    Train an MLCR policy and save it to a ``.npz`` file.
``train-offline``
    Fit the off-policy tabular Q-agent from recorded decision traces
    (golden-trace or serve-recording JSONL) and save it to ``.npz``.
``distill``
    Distill a trained MLCR policy into a µs-scale decision-tree surrogate
    and save it next to the network checkpoint.
``experiment``
    Run a paper experiment by id (fig1, fig2, fig3, tab2, fig8, fig9,
    fig10, fig11a/b/c, overhead, ablations, stream) and print its report.
``trace``
    Golden-trace tooling: ``record`` a decision trace for one
    (workload, scheduler, seed, pool) cell, ``replay`` a trace file and
    fail on any divergence, or ``diff`` two trace files.
``serve``
    Run the online asyncio serving plane: accept invocation requests over
    HTTP, schedule them against a live warm pool through the simulator
    core, and (optionally) record the session for deterministic replay.
``serve-replay``
    Replay a recorded serving session through a fresh simulator and fail
    on the first diverging decision.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import ascii_table
from repro.cluster.simulator import SimulationConfig
from repro.experiments.common import (
    ExperimentScale,
    make_training_factory,
    pool_sizes,
)
from repro.experiments.parallel import (
    GRID_KEYS,
    SCHEDULER_FACTORIES,
    GridTask,
    run_grid,
)
from repro.workloads.fstartbench import WORKLOAD_BUILDERS, build_workload

_SCHEDULERS = SCHEDULER_FACTORIES

_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "tab2", "fig8", "fig9", "fig10",
    "fig11a", "fig11b", "fig11c", "overhead", "ablations", "stream",
)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_workloads(args: argparse.Namespace) -> int:
    """``repro workloads``: list or characterize workload sets."""
    if args.detail:
        from repro.analysis.workload_report import full_report

        print(full_report(build_workload(args.detail, seed=args.seed)))
        return 0
    rows = []
    for name in WORKLOAD_BUILDERS:
        wl = build_workload(name, seed=args.seed)
        rows.append([
            name,
            str(len(wl)),
            f"{wl.duration_s:.0f}",
            str(len(wl.function_specs())),
            f"{wl.metadata.get('similarity', float('nan')):.2f}",
            f"{wl.metadata.get('size_variance', float('nan')):.0f}",
        ])
    print(ascii_table(
        ["workload", "invocations", "duration s", "functions",
         "similarity", "size var"],
        rows,
        title=f"FStartBench workloads (seed {args.seed})",
    ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: run scheduler(s) over a workload.

    The scheduler runs go through
    :func:`repro.experiments.parallel.run_grid` on the lane kernel.
    ``--lanes L`` puts L cells in one kernel and ``--jobs N`` fans the
    kernels over worker processes; the printed table is byte-identical
    for any L and N.  Cells (and the pool-sizing reference run) are served
    from the content-addressed ``.repro_cache/`` unless ``--no-cache`` (or
    ``REPRO_CACHE=off``) is given; ``--profile`` prints the top
    cumulative-time entries of the run.
    """
    from repro.experiments.cache import ExperimentCache, pool_sizes_cached

    cache = ExperimentCache(enabled=False if args.no_cache else None)
    capacity = pool_sizes_cached(
        args.workload, args.seed, cache
    )[args.pool.capitalize()]
    keys = list(GRID_KEYS) if args.scheduler == "all" else [args.scheduler]
    tasks = [
        GridTask(scheduler=key, workload=args.workload, seed=args.seed,
                 pool_label=args.pool.capitalize(), capacity_mb=capacity)
        for key in keys
    ]
    if args.profile:
        from repro.profiling import profile_call

        cells = profile_call(
            lambda: run_grid(tasks, jobs=args.jobs, cache=cache,
                             lanes=args.lanes)
        )
    else:
        cells = run_grid(tasks, jobs=args.jobs, cache=cache,
                         lanes=args.lanes)
    rows = []
    for cell in cells:
        s = cell.summary
        rows.append([
            cell.method,
            f"{s['total_startup_s']:.1f}",
            f"{s['mean_startup_s'] * 1e3:.0f}",
            str(int(s["cold_starts"])),
            str(int(s["evictions"])),
            f"{s['peak_warm_memory_mb']:.0f}",
        ])
    print(ascii_table(
        ["policy", "total [s]", "mean [ms]", "cold", "evictions",
         "peak warm MB"],
        rows,
        title=(f"{args.workload} (seed {args.seed}), {args.pool} pool "
               f"= {capacity:.0f} MB"),
    ))
    # Proactive-policy accounting blocks (only for cells that have them).
    for cell in cells:
        s = cell.summary
        if s.get("prewarms_issued"):
            hit = s["prewarm_reuses"] / s["prewarms_issued"]
            print(f"{cell.method}: pre-warms "
                  f"{int(s['prewarms_issued'])} issued, "
                  f"{int(s['prewarm_reuses'])} reused, "
                  f"{int(s['prewarm_wasted'])} wasted "
                  f"(hit rate {hit:.1%})")
        if s.get("lends_issued"):
            hit = s["lend_reuses"] / s["lends_issued"]
            print(f"{cell.method}: lends {int(s['lends_issued'])} issued, "
                  f"{int(s['lend_reuses'])} reused by target "
                  f"(hit rate {hit:.1%})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: train an MLCR policy and save it."""
    from repro.core.mlcr import train_mlcr_scheduler
    from repro.core.persistence import save_scheduler

    scale = ExperimentScale.from_env()
    builder = WORKLOAD_BUILDERS[args.workload]
    capacity = pool_sizes(builder(seed=0))[args.pool.capitalize()]
    config = scale.mlcr_config(seed=args.seed)
    if args.episodes:
        from dataclasses import replace

        config = replace(config, n_episodes=args.episodes)
    print(f"training on {args.workload}@{args.pool} ({capacity:.0f} MB), "
          f"{config.n_episodes} episodes...")
    scheduler, history = train_mlcr_scheduler(
        workload_factory=make_training_factory(lambda s: builder(seed=s),
                                               scale),
        sim_config=SimulationConfig(pool_capacity_mb=capacity),
        config=config,
        verbose=args.verbose,
    )
    path = save_scheduler(scheduler, config, args.output)
    print(f"best validation latency: {history.best_eval_latency:.1f}s")
    print(f"saved policy to {path}")
    return 0


def cmd_train_offline(args: argparse.Namespace) -> int:
    """``repro train-offline``: fit the tabular Q-agent from trace JSONL.

    The sources are decision traces in either recorded dialect: golden
    traces (``repro trace record`` / ``tests/golden_traces``) or serving
    recordings (``repro serve --record``).  Fitting is order-independent
    over the shards -- see :func:`repro.drl.offline.fit_from_traces`.
    """
    from repro.drl.offline import fit_from_traces

    try:
        policy = fit_from_traces(
            args.traces, gamma=args.gamma, iterations=args.iterations
        )
    except ValueError as exc:  # a corrupt trace line or a bad --gamma
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not policy.n_transitions:
        print("no decision lines found in the given traces", file=sys.stderr)
        return 1
    path = policy.save(args.output)
    print(f"fitted {len(policy.states)} states / "
          f"{policy.n_transitions} transitions "
          f"(gamma={policy.gamma}, {policy.iterations} sweeps)")
    print(f"saved policy to {path}")
    if args.evaluate:
        from repro.experiments.cache import pool_sizes_cached
        from repro.experiments.common import evaluate_scheduler
        from repro.schedulers.offline import OfflineQScheduler

        workload = build_workload(args.evaluate, seed=args.seed)
        capacity = pool_sizes_cached(
            args.evaluate, args.seed, None
        )[args.pool.capitalize()]
        outcome = evaluate_scheduler(
            OfflineQScheduler(policy), workload, capacity,
            pool_label=args.pool.capitalize(),
        )
        print(f"evaluation on {args.evaluate}@{args.pool}: "
              f"total startup {outcome.total_startup_s:.1f}s, "
              f"{outcome.cold_starts} cold starts")
    return 0


def cmd_distill(args: argparse.Namespace) -> int:
    """``repro distill``: compress a trained policy into a tree surrogate.

    Loads the ``.npz`` checkpoint, replays ``--seeds`` draws of the
    workload through the network to collect its greedy decisions, fits
    the CART surrogate and saves it.  The printed report shows dataset
    size, tree size and in-sample agreement -- the quantity the
    ``surrogate_vs_network`` oracle bounds at 99 %.
    """
    from repro.core.persistence import load_scheduler
    from repro.drl.distill import (
        DistillConfig,
        distill_scheduler,
        save_surrogate,
    )

    try:
        scheduler = load_scheduler(args.policy)
    except ValueError as exc:  # a missing, corrupt or incomplete policy
        print(f"error: {exc}", file=sys.stderr)
        return 2
    builder = WORKLOAD_BUILDERS[args.workload]
    capacity = pool_sizes(builder(seed=0))[args.pool.capitalize()]
    workloads = [builder(seed=s) for s in range(args.seeds)]
    print(f"distilling {args.policy} over {args.seeds} draws of "
          f"{args.workload}@{args.pool} ({capacity:.0f} MB)...")
    surrogate, report = distill_scheduler(
        scheduler, workloads, capacity,
        config=DistillConfig(max_depth=args.max_depth),
    )
    save_surrogate(surrogate, args.output)
    print(f"{report.n_states} states -> {report.n_nodes} tree nodes, "
          f"in-sample agreement {report.agreement:.1%}")
    print(f"saved surrogate to {args.output}")
    return 0 if report.agreement >= 0.99 else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: run one paper experiment."""
    from repro.experiments import (
        ablations,
        ext_stream_replay,
        fig1_breakdown,
        fig2_motivation,
        fig3_dockerhub,
        fig8_overall,
        fig9_trajectory,
        fig10_memory,
        fig11_benchmarks,
        overhead,
        tab2_functions,
    )

    simple = {
        "fig1": fig1_breakdown,
        "fig2": fig2_motivation,
        "fig3": fig3_dockerhub,
        "tab2": tab2_functions,
    }
    scaled = {
        "fig8": fig8_overall,
        "fig9": fig9_trajectory,
        "fig10": fig10_memory,
        "overhead": overhead,
        "ablations": ablations,
        "stream": ext_stream_replay,
    }
    if args.id in simple:
        module = simple[args.id]
        print(module.report(module.run()))
    elif args.id == "stream":
        # The streaming family takes the lane count: cells replaying the
        # same stream share one chunked lane pass under --lanes.
        print(ext_stream_replay.report(ext_stream_replay.run(
            ExperimentScale.from_env(), lanes=getattr(args, "lanes", 1)
        )))
    elif args.id in scaled:
        module = scaled[args.id]
        print(module.report(module.run(ExperimentScale.from_env())))
    elif args.id.startswith("fig11"):
        sub = {"fig11a": "a:similarity", "fig11b": "b:variance",
               "fig11c": "c:arrival"}[args.id]
        print(fig11_benchmarks.report(
            fig11_benchmarks.run_subfigure(sub, ExperimentScale.from_env())
        ))
    else:  # pragma: no cover - argparse choices prevent this
        raise SystemExit(f"unknown experiment {args.id}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: record / replay / diff simulator decision traces."""
    from repro.verify.trace import (
        TraceSpec,
        diff_traces,
        read_trace,
        record_trace,
        replay_trace,
        write_trace,
    )

    if args.action == "record":
        trace = record_trace(TraceSpec(
            workload=args.workload,
            scheduler=args.scheduler,
            seed=args.seed,
            pool=args.pool.capitalize(),
            verify=args.verify,
        ))
        path = write_trace(trace, args.output)
        print(f"recorded {trace.header.n_events} events to {path}")
        return 0
    replay = args.action == "replay"
    try:
        expected = read_trace(args.trace if replay else args.expected)
        actual = (replay_trace(expected, verify=args.verify) if replay
                  else read_trace(args.actual))
    except ValueError as exc:  # a trace this build cannot read or replay
        print(f"error: {exc}", file=sys.stderr)
        return 2
    divergence = diff_traces(expected, actual)
    if divergence is not None:
        print(divergence)
        return 1
    print(
        f"{args.trace}: replayed {expected.header.n_events} events, "
        "bit-identical" if replay else "traces identical"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the online HTTP serving plane until Ctrl-C."""
    import asyncio

    from repro.serve.engine import ServeEngine
    from repro.serve.recorder import DecisionRecorder
    from repro.serve.server import ServePlane

    config = SimulationConfig(
        pool_capacity_mb=args.pool_mb,
        n_workers=args.workers,
        worker_concurrency=args.concurrency,
        bounded_telemetry=True,
        verify=not args.no_verify,
    )
    recorder = DecisionRecorder(args.record) if args.record else None
    scheduler = args.scheduler
    if args.policy:
        from repro.core.persistence import load_scheduler

        if args.record:
            print("--policy cannot be combined with --record: replay "
                  "rebuilds schedulers from registry keys", file=sys.stderr)
            return 2
        try:
            scheduler = load_scheduler(args.policy)
        except ValueError as exc:  # a missing, corrupt or incomplete policy
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.surrogate:
            from repro.drl.distill import load_surrogate

            scheduler.attach_surrogate(load_surrogate(args.surrogate),
                                       audit_every=args.audit_every)
    elif args.surrogate:
        print("--surrogate requires --policy", file=sys.stderr)
        return 2
    engine = ServeEngine(
        config,
        scheduler=scheduler,
        keepalive_ttl_s=args.keepalive,
        recorder=recorder,
    )
    plane = ServePlane(
        engine,
        host=args.host,
        port=args.port,
        time_scale=args.time_scale,
        janitor_interval_s=args.janitor_interval,
    )

    async def _run() -> None:
        await plane.start()
        print(f"serving on http://{args.host}:{plane.port} "
              f"(scheduler={engine.scheduler_key}, workers={args.workers}, "
              f"pool={args.pool_mb:.0f} MB)")
        print("endpoints: POST /invoke  GET /stats  GET /healthz  "
              "POST /scheduler")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            result = await plane.stop()
            summary = result.summary()
            print(f"\ndrained: {summary['invocations']:.0f} invocations, "
                  f"{summary['cold_starts']:.0f} cold starts")
            if args.record:
                print(f"recording written to {args.record}")

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve_replay(args: argparse.Namespace) -> int:
    """``repro serve-replay``: verify a recorded serving session."""
    from repro.serve.recorder import replay_recording

    try:
        report = replay_recording(args.recording, verify=args.verify)
    except ValueError as exc:  # a recording this build cannot replay
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report.ok:
        print(report.divergence)
        return 1
    print(f"{args.recording}: replayed {report.n_decisions} decisions "
          f"({report.n_swaps} scheduler swaps), byte-identical")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MLCR reproduction: simulator, FStartBench, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list FStartBench workload sets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detail", default=None,
                   choices=sorted(WORKLOAD_BUILDERS),
                   help="print the full characterization of one workload")
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("simulate", help="run a scheduler over a workload")
    p.add_argument("--workload", default="Overall",
                   choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--scheduler", default="all",
                   choices=["all", *sorted(_SCHEDULERS)])
    p.add_argument("--pool", default="tight",
                   choices=["tight", "moderate", "loose"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the scheduler runs")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed experiment cache")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top-25 "
                        "cumulative-time entries")
    p.add_argument("--lanes", type=int, default=1,
                   help="cells per lane kernel (and per worker job); "
                        "results are identical for any value")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train and save an MLCR policy")
    p.add_argument("--workload", default="Overall",
                   choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--pool", default="tight",
                   choices=["tight", "moderate", "loose"])
    p.add_argument("--episodes", type=int, default=0,
                   help="override training episodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="mlcr_policy.npz")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-offline",
                       help="fit the off-policy Q-agent from trace JSONL")
    p.add_argument("traces", nargs="+",
                   help="decision-trace JSONL files (golden traces or "
                        "serve recordings)")
    p.add_argument("--gamma", type=float, default=0.95,
                   help="discount factor")
    p.add_argument("--iterations", type=int, default=50,
                   help="value-iteration sweeps")
    p.add_argument("--output", default="offline_q_policy.npz")
    p.add_argument("--evaluate", default=None,
                   choices=sorted(WORKLOAD_BUILDERS),
                   help="additionally evaluate the fitted policy on a "
                        "workload")
    p.add_argument("--pool", default="tight",
                   choices=["tight", "moderate", "loose"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_offline)

    p = sub.add_parser("distill",
                       help="distill a trained policy into a tree surrogate")
    p.add_argument("--policy", default="mlcr_policy.npz",
                   help="trained checkpoint from `repro train`")
    p.add_argument("--workload", default="Overall",
                   choices=sorted(WORKLOAD_BUILDERS))
    p.add_argument("--pool", default="tight",
                   choices=["tight", "moderate", "loose"])
    p.add_argument("--seeds", type=int, default=3,
                   help="workload draws to collect decisions over")
    p.add_argument("--max-depth", type=int, default=12,
                   help="decision-tree depth bound")
    p.add_argument("--output", default="mlcr_surrogate.npz")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("id", choices=_EXPERIMENTS)
    p.add_argument("--lanes", type=int, default=1,
                   help="stream-family cells sharing one chunked "
                        "stream-lane pass (identical results for any "
                        "value; ignored by other experiments)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("trace",
                       help="record / replay / diff decision traces")
    trace_sub = p.add_subparsers(dest="action", required=True)

    t = trace_sub.add_parser("record", help="record one cell's trace")
    t.add_argument("--workload", default="LO-Sim",
                   choices=sorted(WORKLOAD_BUILDERS))
    t.add_argument("--scheduler", default="lru",
                   choices=sorted(_SCHEDULERS))
    t.add_argument("--pool", default="tight",
                   choices=["tight", "moderate", "loose"])
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--output", default="trace.jsonl")
    t.add_argument("--verify", action="store_true",
                   help="attach the invariant monitors while recording")
    t.set_defaults(func=cmd_trace)

    t = trace_sub.add_parser(
        "replay", help="re-run a trace's cell and fail on divergence")
    t.add_argument("trace", help="trace file to replay")
    t.add_argument("--verify", action="store_true",
                   help="attach the invariant monitors while replaying")
    t.set_defaults(func=cmd_trace)

    t = trace_sub.add_parser("diff", help="diff two trace files")
    t.add_argument("expected")
    t.add_argument("actual")
    t.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", help="run the online HTTP serving plane")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--scheduler", default="lru",
                   choices=sorted(_SCHEDULERS))
    p.add_argument("--pool-mb", type=float, default=4096.0,
                   help="warm-pool memory capacity")
    p.add_argument("--workers", type=int, default=4,
                   help="simulated worker nodes")
    p.add_argument("--concurrency", type=int, default=8,
                   help="containers concurrently starting/executing per "
                        "worker (admission bound = workers * concurrency)")
    p.add_argument("--keepalive", type=float, default=None,
                   help="scale-to-zero keep-alive TTL in seconds "
                        "(default: the eviction policy's own TTL)")
    p.add_argument("--time-scale", type=float, default=0.0,
                   help="wall seconds each request holds per simulated "
                        "service second (0 = respond immediately)")
    p.add_argument("--janitor-interval", type=float, default=0.05,
                   help="wall seconds between keep-alive sweeps")
    p.add_argument("--record", default=None,
                   help="JSONL path recording every decision for "
                        "deterministic replay")
    p.add_argument("--no-verify", action="store_true",
                   help="disable the live invariant monitors")
    p.add_argument("--policy", default=None,
                   help="serve a trained MLCR checkpoint (.npz from "
                        "`repro train`) instead of a registry scheduler")
    p.add_argument("--surrogate", default=None,
                   help="serve decisions from a distilled surrogate (.npz "
                        "from `repro distill`); requires --policy")
    p.add_argument("--audit-every", type=int, default=64,
                   help="audit every Nth surrogate decision against the "
                        "network (0 disables auditing)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("serve-replay",
                       help="verify a recorded serving session")
    p.add_argument("recording", help="JSONL recording from repro serve")
    p.add_argument("--verify", action="store_true",
                   help="attach the invariant monitors while replaying")
    p.set_defaults(func=cmd_serve_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
