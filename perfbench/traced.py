"""The traced run (``--trace 1``): per-layer calls and self time.

Each workload's legs run once untraced and once with the :mod:`tracing`
wrappers installed (offline workloads: set-up plus one pass of every leg,
with the process-wide workload and lowering memos cleared in between so
both runs do the same work; serve: one server per run, the wrappers
installed inside the traced server by its launcher).  The untraced run
only provides the denominator of ``trace.overhead_frac``; outputs of the
traced run are checked against the untraced ones, so tracing is also
shown to leave every simulated statistic unchanged.  A wrapper target
that is no longer found in the program fails the run, so a renamed layer
cannot read as zero calls and zero time.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import tracing
from hostspeed import HostSpeed
from workloads import Checks, Legs

#: Result-line metrics derived from the tracer's counters.
RATIO_METRICS = (
    "pool.lookup.hit_ratio",
    "eviction.victims_per_call",
    "eviction.reject_ratio",
    "parallel.arrival_table_memo.hit_ratio",
    "cache.hit_ratio",
)


def per_layer_metrics(agg, counters, traced_wall_s: float,
                      untraced_wall_s: float, covered_s: float) -> Dict:
    """The ``--trace 1`` result metrics plus the printed table rows."""
    table = tracing.layer_table(agg)
    metrics: Dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in tracing.UNIVERSAL_LAYERS:
        row = table.get(layer, {"calls": 0, "self_s": 0.0})
        put(f"{layer}.calls", int(row["calls"]), "count")
        put(f"{layer}.self_s", row["self_s"], "s")
    for layer in tracing.OTHER_LAYERS:
        put(f"{layer}.calls", int(table.get(layer, {"calls": 0})["calls"]),
            "count")
    memo_calls = table.get("parallel.arrival_table_memo", {"calls": 0})
    memo_misses = tracing.child_calls(agg, "lanes.lower",
                                      "parallel.arrival_table_memo")
    put("pool.lookup.hit_ratio",
        tracing.ratio(counters.get("pool.lookup.hits", 0),
                      counters.get("pool.lookup.attempts", 0)), "ratio")
    put("eviction.victims_per_call",
        tracing.ratio(counters.get("eviction.victims", 0),
                      counters.get("eviction.attempts", 0)), "count")
    put("eviction.reject_ratio",
        tracing.ratio(counters.get("eviction.rejects", 0),
                      counters.get("eviction.attempts", 0)), "ratio")
    put("parallel.arrival_table_memo.hit_ratio",
        tracing.ratio(memo_calls["calls"] - memo_misses, memo_calls["calls"]),
        "ratio")
    put("cache.hit_ratio",
        tracing.ratio(counters.get("cache.hits", 0),
                      counters.get("cache.lookups", 0)), "ratio")
    put("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0, "ratio")
    put("trace.coverage_frac", covered_s / traced_wall_s, "ratio")
    return metrics, table


def print_table(name: str, table, traced_wall_s: float, metrics: Dict,
                extra: Dict[str, float], missing) -> None:
    print(f"# traced {name}: wall {traced_wall_s:.3f} s")
    print(f"{'layer':<34} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if layer.startswith("schedulers.decide."):
            continue
        share = row["self_s"] / traced_wall_s
        print(f"{layer:<34} {int(row['calls']):>10} {row['self_s']:>10.4f}"
              f" {share:>7.1%}")
    for key in sorted(tracing.SCHEDULER_KEYS):
        row = table.get(f"schedulers.decide.{key}")
        if row:
            print(f"  decide.{key:<25} {int(row['calls']):>10}"
                  f" {row['self_s']:>10.4f}")
    kernel = sum(table.get(k, {"self_s": 0.0})["self_s"]
                 for k in ("lanes.kernel", "lanes.stream_run"))
    print(f"{'unattributed lane-kernel share':<34}"
          f" {kernel / traced_wall_s:>29.1%}")
    for key in RATIO_METRICS + ("trace.overhead_frac", "trace.coverage_frac"):
        print(f"{key:<34} {metrics[key]['value']:>29.4f}")
    for key, value in sorted(extra.items()):
        print(f"{key:<34} {value:>29.4f}")
    if missing:
        print("targets not found in the program:", ", ".join(missing))


def run(name: str, seed: int, seconds: float, build, check_digest,
        scratch) -> Tuple[Dict, Checks]:
    """Traced run of one workload; returns ``(metrics, checks)``."""
    if name == "serve-http":
        return _run_serve(seed, seconds, build)
    from repro.experiments import parallel

    checks = Checks()
    workload = build(name, seed)
    speed = HostSpeed()
    speed.tick()
    start = time.perf_counter()
    workload.setup()
    workload.one_pass(scratch, Legs(), checks)
    untraced_s = time.perf_counter() - start
    speed.tick()
    untraced_s *= speed.factor()
    check_digest(workload, name, seed, checks)

    parallel.clear_workload_cache()
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        speed = HostSpeed()
        speed.tick()
        start = time.perf_counter()
        if name == "azure-stream":
            with tracer.span("workloads.generate"):
                workload.setup()
            traced_stream = tracing.TracedIterable(
                tracer, workload.stream, "workloads.generate"
            )
            workload.one_pass(scratch, Legs(), checks, traced_stream)
        else:
            workload.setup()
            workload.one_pass(scratch, Legs(), checks)
        traced_s = time.perf_counter() - start
    finally:
        installation.remove()
    checks.check(not installation.missing,
                 "trace targets missing: " + ", ".join(installation.missing))
    speed.tick()
    metrics, table = per_layer_metrics(
        tracer.agg, tracer.counters, traced_s * speed.factor(), untraced_s,
        tracing.root_seconds(tracer.agg),
    )
    # Coverage compares spans with the wall time they were recorded in.
    metrics["trace.coverage_frac"]["value"] = (
        tracing.root_seconds(tracer.agg) / traced_s)
    print_table(name, table, traced_s, metrics, {}, installation.missing)
    return metrics, checks


def _run_serve(seed: int, seconds: float, build) -> Tuple[Dict, Checks]:
    from serving import Server

    checks = Checks()
    workload = build("serve-http", seed)
    phase_s = max(2.0, 0.4 * seconds)
    untraced = Legs()
    workload.base(Server(), phase_s, untraced, checks)
    traced_legs = Legs()
    report = workload.base(Server(trace=True), phase_s, traced_legs, checks)
    dumped = report["trace"]
    checks.check(not dumped["missing"],
                 "trace targets missing: " + ", ".join(dumped["missing"]))
    tracer = tracing.Tracer()
    tracer.merge(dumped)
    counters = tracer.counters
    idle_s = sum(rec[1] for (n, p), rec in tracer.agg.items()
                 if n == "serve.idle")
    busy_wall_s = counters["trace.window_s"] - idle_s
    covered_s = tracing.root_seconds(tracer.agg) - idle_s
    metrics, table = per_layer_metrics(
        tracer.agg, counters, 1.0 / traced_legs.rate("main"),
        1.0 / untraced.rate("main"), covered_s,
    )
    # Coverage for the server is over its busy wall time (selector waits
    # excluded); overhead is scaled server CPU per request, traced vs
    # untraced.
    metrics["trace.coverage_frac"]["value"] = covered_s / busy_wall_s
    waits = counters.get("serve.admission.wait_n", 0)
    extra = {
        "serve.admission.wait_s (total)": counters.get(
            "serve.admission.wait_s", 0.0),
        "serve.admission.waits": waits,
        "loadgen.late_ms_tail": max(
            v for k, v in traced_legs.info.items()
            if k.startswith("late_tail_ms_")),
        "server busy wall s": busy_wall_s,
    }
    print_table("serve-http", table, busy_wall_s, metrics, extra,
                dumped["missing"])
    return metrics, checks
