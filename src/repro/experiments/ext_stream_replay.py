"""Extension experiment: production-scale streaming trace replay.

The paper evaluates on 400-invocation FStartBench mixes; production traces
(Shahrad et al.'s Azure analysis) are tens of thousands of functions and
millions of invocations per day.  This scenario family replays a synthetic
Azure-like trace at that scale through the streaming pipeline end to end:

* arrivals come from :meth:`AzureTraceGenerator.stream` -- per-function
  numpy chunks merged one time window at a time, never materialized,
  O(#functions + window + chunk) memory;
* bounded stream lanes (:func:`~repro.cluster.lanes.run_stream_lanes`)
  consume them in bounded chunks, every cell replaying the same stream
  sharing one pass;
* telemetry folds like :class:`~repro.cluster.telemetry.BoundedTelemetry`
  -- exact counters plus quantile sketches, O(1) in the invocation count
  -- so summaries are byte-identical to
  :meth:`ClusterSimulator.run_stream` with bounded telemetry (the
  ``streaming_vs_materialized`` oracle pins this).

At ``REPRO_SCALE=fast`` the family runs 300 functions x 30k invocations
per cell (seconds); at ``full`` it is the headline 20k functions x 10M
invocations, which no materialized path could hold in memory.  Cells are
independent ``(scheduler, seed)`` pairs; the lane groups fan across worker
processes exactly like the baseline grid's lane batches, and the report
carries no wall-clock values, so its text is byte-identical for any
``jobs`` or ``lanes`` count.

Pool capacity is derived *from the trace itself*: a fixed fraction of the
summed per-function image memory, computed from the stream's function
specs without generating a single arrival.  That keeps the sizing
deterministic, seed-dependent only through the sampled function mix, and
cheap at any scale (a Loose-style unbounded reference run would itself
cost a full replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import ascii_table
from repro.cluster.lanes import run_stream_lanes
from repro.experiments.common import ExperimentScale
from repro.experiments.parallel import PackedCell, map_batches, pack_results
from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator

#: Schedulers replayed per cell (keys into
#: :data:`repro.experiments.parallel.SCHEDULER_FACTORIES`).  MLCR is absent
#: for the same reason it is absent from the baseline grid: trained policies
#: are not cheap to rebuild per worker.
STREAM_SCHEDULERS: Tuple[str, ...] = ("lru", "keepalive", "greedy")

#: Evaluation seeds (kept small: each full-scale cell is a 10M-event replay).
STREAM_SEEDS: Tuple[int, ...] = (0, 1)

#: Pool capacity as a fraction of the summed per-function image memory.
CAPACITY_FRACTION = 0.08

#: Mean arrival rate (invocations/second) held constant across scales, so
#: burst density -- not trace length -- is what changes with duration.
ARRIVALS_PER_SECOND = 100.0


@dataclass(frozen=True)
class StreamReplayTask:
    """One streaming-replay cell (picklable, names and numbers only)."""

    scheduler: str
    seed: int
    n_functions: int
    n_invocations: int
    capacity_fraction: float = CAPACITY_FRACTION


@dataclass(frozen=True)
class StreamReplayCell:
    """Outcome of one streaming-replay cell."""

    task: StreamReplayTask
    method: str
    summary: Dict[str, float]


@dataclass(frozen=True)
class StreamReplayRow:
    """Mean results over seeds for one scheduler at one scale."""

    method: str
    n_functions: int
    n_invocations: int
    mean_startup_ms: float
    p95_startup_ms: float
    cold_fraction: float
    evictions: float
    peak_warm_memory_mb: float
    n_seeds: int


@dataclass(frozen=True)
class StreamReplayResult:
    """All cells of one streaming-replay run, plus aggregation."""

    cells: List[StreamReplayCell]

    def rows(self) -> List[StreamReplayRow]:
        """Mean metrics per scheduler, in first-encounter (task) order."""
        groups: Dict[Tuple[str, int, int], List[StreamReplayCell]] = {}
        for cell in self.cells:
            key = (cell.method, cell.task.n_functions,
                   cell.task.n_invocations)
            groups.setdefault(key, []).append(cell)
        rows: List[StreamReplayRow] = []
        for (method, n_fns, n_inv), cells in groups.items():
            def mean(name: str) -> float:
                return float(np.mean([c.summary[name] for c in cells]))

            invocations = mean("invocations")
            rows.append(StreamReplayRow(
                method=method,
                n_functions=n_fns,
                n_invocations=n_inv,
                mean_startup_ms=mean("mean_startup_s") * 1e3,
                p95_startup_ms=mean("p95_startup_s") * 1e3,
                cold_fraction=(
                    mean("cold_starts") / invocations if invocations else 0.0
                ),
                evictions=mean("evictions"),
                peak_warm_memory_mb=mean("peak_warm_memory_mb"),
                n_seeds=len(cells),
            ))
        return rows


def trace_config(n_functions: int, n_invocations: int) -> AzureTraceConfig:
    """The scenario family's trace shape at one scale.

    Duration scales with the invocation count so the mean arrival rate
    stays at :data:`ARRIVALS_PER_SECOND` regardless of scale.
    """
    return AzureTraceConfig(
        n_functions=n_functions,
        n_invocations=n_invocations,
        duration_s=n_invocations / ARRIVALS_PER_SECOND,
    )


def derive_capacity_mb(
    stream, capacity_fraction: float = CAPACITY_FRACTION
) -> float:
    """Pool capacity for one cell: a fraction of the summed image memory.

    Reads only the stream's sampled function specs (already drawn at
    stream construction), so sizing costs O(#functions) and never touches
    an arrival.
    """
    total = sum(spec.image.memory_mb for spec in stream.specs)
    return capacity_fraction * total


def _run_lane_group_packed(
    tasks: Tuple[StreamReplayTask, ...]
) -> List[PackedCell]:
    """Worker entry point: replay one stream through many lanes at once.

    ``tasks`` must share ``(seed, n_functions, n_invocations)`` so they
    describe the *same* arrival stream; each task becomes one bounded lane
    (its own scheduler and derived capacity) of a single
    :func:`~repro.cluster.lanes.run_stream_lanes` pass, which cuts the
    stream into chunks exactly once instead of once per cell.
    Results come back in task order as the baseline grid's columnar
    blocks (:data:`~repro.experiments.parallel.PackedCell`).
    """
    head = tasks[0]
    generator = AzureTraceGenerator(
        trace_config(head.n_functions, head.n_invocations)
    )
    stream = generator.stream(seed=head.seed)
    return pack_results(run_stream_lanes(
        [
            (task.scheduler,
             derive_capacity_mb(stream, task.capacity_fraction))
            for task in tasks
        ],
        stream,
    ))


def default_tasks(
    scale: Optional[ExperimentScale] = None,
    schedulers: Sequence[str] = STREAM_SCHEDULERS,
    seeds: Sequence[int] = STREAM_SEEDS,
) -> List[StreamReplayTask]:
    """The ``(scheduler x seed)`` cell list at this scale's trace size."""
    scale = scale or ExperimentScale.from_env()
    return [
        StreamReplayTask(
            scheduler=scheduler,
            seed=seed,
            n_functions=scale.stream_functions,
            n_invocations=scale.stream_invocations,
        )
        for seed in seeds
        for scheduler in schedulers
    ]


def run(
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
    schedulers: Sequence[str] = STREAM_SCHEDULERS,
    seeds: Sequence[int] = STREAM_SEEDS,
    lanes: int = 1,
) -> StreamReplayResult:
    """Replay the scenario family on stream lanes, fanning over ``jobs``.

    Cells that replay the same stream (same seed and trace shape) are
    grouped, ``lanes`` at a time, and each group runs as one chunked
    :func:`~repro.cluster.lanes.run_stream_lanes` pass -- the stream is
    generated and chunked once per group, in O(1) memory.  ``lanes=1``
    gives every cell its own pass.  ``jobs`` fans the groups across
    workers.  Results come back in task order (``Pool.map`` preserves it)
    and the serial path round-trips through the same columnar packer as
    the parallel one, so the outcome is byte-identical for any ``jobs``
    or ``lanes``.
    """
    tasks = default_tasks(scale, schedulers=schedulers, seeds=seeds)
    step = max(1, lanes)
    groups: Dict[Tuple[int, int, int, float], List[StreamReplayTask]] = {}
    for task in tasks:
        key = (task.seed, task.n_functions, task.n_invocations,
               task.capacity_fraction)
        groups.setdefault(key, []).append(task)
    batches = [
        tuple(group[j:j + step])
        for group in groups.values()
        for j in range(0, len(group), step)
    ]
    batch_packed = map_batches(_run_lane_group_packed, batches, jobs)
    packed_by_task = {
        id(task): block
        for batch, blocks in zip(batches, batch_packed)
        for task, block in zip(batch, blocks)
    }
    packed = [packed_by_task[id(task)] for task in tasks]
    cells = [
        StreamReplayCell(
            task=task, method=method, summary=dict(zip(keys, values))
        )
        for task, (method, keys, values) in zip(tasks, packed)
    ]
    return StreamReplayResult(cells=cells)


def report(result: StreamReplayResult) -> str:
    """Render the family as a deterministic ASCII table (no wall-clock)."""
    rows = [
        [r.method, f"{r.n_functions}", f"{r.n_invocations}",
         f"{r.mean_startup_ms:.1f}", f"{r.p95_startup_ms:.1f}",
         f"{100 * r.cold_fraction:.1f}%", f"{r.evictions:.1f}",
         f"{r.peak_warm_memory_mb:.0f}", f"{r.n_seeds}"]
        for r in result.rows()
    ]
    return ascii_table(
        ["method", "functions", "invocations", "mean startup [ms]",
         "p95 [ms]", "cold %", "evictions", "peak MB", "seeds"],
        rows,
        title=("Extension: streaming Azure-like replay "
               f"(capacity = {CAPACITY_FRACTION:.0%} of summed image MB, "
               "bounded telemetry)"),
    )
