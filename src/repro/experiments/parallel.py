"""Parallel experiment runner: fan a scheduler/workload grid over workers.

The experiment suite replays thousands of simulations that are completely
independent of each other: one per ``(scheduler, workload, pool size,
seed)`` cell.  This module materializes that grid as picklable
:class:`GridTask` descriptions, runs them in batches on the
:class:`~repro.cluster.lanes.LaneKernel` (one lane per cell) and fans the
batches across ``multiprocessing`` workers.

Determinism is by construction:

* a task carries *names and seeds*, never live objects -- each worker
  rebuilds the workload and a fresh scheduler, so results are a pure
  function of the task (workloads are memoized per process by
  ``(name, seed)``, which is equivalence-preserving because
  ``build_workload`` is deterministic and workloads are frozen);
* a trained MLCR policy is named by the SHA-256 digest of its policy
  file (:func:`~repro.experiments.common.register_policy`); each batch
  carries the bytes of the policies it uses, and its lanes load them from
  memory, so policy cells run the same in-process, forked or spawned;
* results return in task order (``Pool.map`` preserves it), so the merged
  telemetry and the rendered report are byte-identical for any ``jobs``
  value, including ``jobs=1`` (which short-circuits to an in-process loop).

IPC is columnar: a worker ships back ``(method, summary-keys tuple,
array('d') values)`` per cell -- a few hundred bytes -- instead of a pickled
object graph, and both the serial and the parallel path round-trip through
the same packer so their cells are identical by construction.  With an
:class:`~repro.experiments.cache.ExperimentCache` attached, cached cells
are served from disk and only the misses fan out to workers.

Wired into ``python -m repro simulate --jobs N`` and, through
``python -m repro.experiments.runall --jobs N --lanes L``, into the grid
section and the Fig 8, Fig 10, Fig 11 and ablation sections, whose
baseline, heuristic and trained-policy cells are all grid tasks.
"""

from __future__ import annotations

import multiprocessing
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import ascii_table
from repro.cluster.lanes import (
    SCHEDULER_CLASS_NAMES,
    ArrivalTable,
    LaneKernel,
    LaneSpec,
    scheduler_class,
)
from repro.experiments.cache import ExperimentCache, pool_sizes_cached
from repro.experiments.common import ExperimentScale, registered_policy
from repro.workloads.fstartbench import build_workload
from repro.workloads.workload import Workload

#: Scheduler registry: CLI name -> class name in :mod:`repro.schedulers`.
#: Every entry builds with no constructor arguments, which is what makes
#: grid tasks picklable and worker-rebuildable.  The mapping is shared
#: with the lane kernel (:data:`repro.cluster.lanes.SCHEDULER_CLASS_NAMES`)
#: so every registry key has a lane path by construction.
SCHEDULER_FACTORIES: Dict[str, str] = dict(SCHEDULER_CLASS_NAMES)

#: The paper's four baselines, in the figures' method order.
BASELINE_KEYS: Tuple[str, ...] = ("lru", "faascache", "keepalive", "greedy")

#: The default grid's scheduler set: the paper baselines plus the three
#: extension policy families (MPC pre-warm, Pagurus lending, offline Q).
GRID_KEYS: Tuple[str, ...] = BASELINE_KEYS + ("mpc", "lending", "offline")


def build_scheduler(key: str):
    """Instantiate a scheduler from its registry ``key``."""
    return scheduler_class(key)()


#: The ``GridTask.scheduler`` of a trained-policy cell.
MLCR_KEY = "mlcr"


@dataclass(frozen=True)
class GridTask:
    """One cell of the experiment grid (picklable, name-and-seed only).

    ``scheduler`` is a :data:`SCHEDULER_FACTORIES` key, or
    :data:`MLCR_KEY` with ``policy`` set to a registered policy's digest
    (:func:`~repro.experiments.common.register_policy`).
    """

    scheduler: str      # key into SCHEDULER_FACTORIES, or MLCR_KEY
    workload: str       # key into WORKLOAD_BUILDERS
    seed: int
    pool_label: str     # "Tight" / "Moderate" / "Loose" (cosmetic)
    capacity_mb: float
    policy: Optional[str] = None  # policy-file SHA-256, on MLCR_KEY tasks

    def __post_init__(self) -> None:
        if (self.policy is not None) != (self.scheduler == MLCR_KEY):
            raise ValueError(
                f"a {MLCR_KEY!r} task names its policy digest and no "
                f"other task does (scheduler={self.scheduler!r}, "
                f"policy={self.policy!r})"
            )


def method_tasks(
    workload: str,
    pool_label: str,
    capacity_mb: float,
    seeds: Sequence[int],
    keys: Sequence[str] = BASELINE_KEYS,
    policy: Optional[str] = None,
) -> List[GridTask]:
    """Per seed, one task per registry key in ``keys``, then one for the
    registered policy ``policy`` if given: the figures' method cells of
    one ``(workload, pool)`` in the order they aggregate them."""
    tasks: List[GridTask] = []
    for seed in seeds:
        for key in keys:
            tasks.append(GridTask(key, workload, seed, pool_label,
                                  capacity_mb))
        if policy is not None:
            tasks.append(GridTask(MLCR_KEY, workload, seed, pool_label,
                                  capacity_mb, policy=policy))
    return tasks


@dataclass(frozen=True)
class GridCell:
    """The merged-telemetry outcome of one grid task."""

    task: GridTask
    method: str                  # scheduler display name
    summary: Dict[str, float]    # Telemetry.summary() of the run

    @property
    def total_startup_s(self) -> float:
        """Total startup latency of the run."""
        return self.summary["total_startup_s"]

    @property
    def cold_starts(self) -> float:
        """Cold-start count of the run."""
        return self.summary["cold_starts"]


#: Packed IPC form of one cell: ``(method, summary keys, summary values)``.
#: Keys are a tuple of interned strings and values a flat ``array('d')``
#: block, so pickling a worker result costs a few hundred bytes instead of
#: an object graph; doubles round-trip exactly.
PackedCell = Tuple[str, Tuple[str, ...], "array"]

#: Per-process workload memo keyed by ``(name, seed)``: grid tasks in the
#: same worker that share a workload draw skip rebuilding it.  Safe because
#: :class:`~repro.workloads.workload.Workload` is frozen and
#: ``build_workload`` is deterministic, so reuse is observationally
#: identical to a rebuild.
_WORKLOAD_CACHE: Dict[Tuple[str, int], Workload] = {}


def cached_workload(name: str, seed: int) -> Workload:
    """Build (or fetch the process-local memo of) one workload draw."""
    key = (name, seed)
    workload = _WORKLOAD_CACHE.get(key)
    if workload is None:
        workload = _WORKLOAD_CACHE[key] = build_workload(name, seed=seed)
    return workload


def clear_workload_cache() -> None:
    """Drop the process-local workload memo (used by tests)."""
    _WORKLOAD_CACHE.clear()
    _ARRIVAL_TABLE_CACHE.clear()


#: Size bound of the per-process arrival-table memo: a 20k-function table
#: costs real memory, so the memo must not accumulate one entry per
#: ``(workload, seed)`` across a large grid.
ARRIVAL_TABLE_CACHE_CAP = 8

#: Per-process arrival-table memo keyed by ``(name, seed)``: every lane
#: replaying the same workload draw shares one read-only
#: :class:`~repro.cluster.lanes.ArrivalTable`.  Bounded LRU (at most
#: :data:`ARRIVAL_TABLE_CACHE_CAP` tables): hits refresh recency, inserts
#: beyond the cap evict the least-recently-used table.  Eviction is
#: equivalence-preserving -- a rebuilt table replays bit-identically to the
#: evicted one.
_ARRIVAL_TABLE_CACHE: "OrderedDict[Tuple[str, int], ArrivalTable]" = (
    OrderedDict()
)


def cached_arrival_table(name: str, seed: int) -> ArrivalTable:
    """The arrival table of one workload draw (bounded process memo)."""
    key = (name, seed)
    table = _ARRIVAL_TABLE_CACHE.get(key)
    if table is None:
        table = ArrivalTable(cached_workload(name, seed))
        _ARRIVAL_TABLE_CACHE[key] = table
        while len(_ARRIVAL_TABLE_CACHE) > ARRIVAL_TABLE_CACHE_CAP:
            _ARRIVAL_TABLE_CACHE.popitem(last=False)
    else:
        _ARRIVAL_TABLE_CACHE.move_to_end(key)
    return table


def unpack_cell(task: GridTask, packed: PackedCell) -> GridCell:
    """Rebuild a cell from its columnar IPC block."""
    method, keys, values = packed
    return GridCell(task=task, method=method,
                    summary=dict(zip(keys, values)))


#: One worker job: a batch of tasks and the policy-file bytes of the
#: trained policies among them, by digest.
LaneBatch = Tuple[Tuple[GridTask, ...], Dict[str, bytes]]


def _run_lane_batch_packed(batch: LaneBatch) -> List[PackedCell]:
    """Worker entry point: run a batch of cells on one lane kernel.

    Each task becomes one lane; tasks sharing a workload draw share one
    process-memoized :class:`~repro.cluster.lanes.ArrivalTable`, and a
    policy task's lane loads its policy from the batch's bytes.  Results
    come back in task order as columnar IPC blocks (:data:`PackedCell`).
    """
    tasks, policies = batch
    specs = [
        LaneSpec(
            scheduler=task.scheduler,
            table=cached_arrival_table(task.workload, task.seed),
            capacity_mb=task.capacity_mb,
            policy=policies[task.policy] if task.policy else None,
        )
        for task in tasks
    ]
    return pack_results(LaneKernel(specs).run())


def pack_results(results) -> List[PackedCell]:
    """Columnar IPC blocks (:data:`PackedCell`) of lane results, in order."""
    return [
        (res.method, tuple(res.summary), array("d", res.summary.values()))
        for res in results
    ]


def map_batches(worker: Callable, batches: Sequence, jobs: int) -> List:
    """``[worker(batch) for batch in batches]``, fanned over ``jobs``.

    One batch or ``jobs <= 1`` runs in-process; otherwise ``Pool.map``
    (fork where available) runs the batches on worker processes and keeps
    their order.  ``worker`` must be a module-level function.
    """
    if jobs <= 1 or len(batches) <= 1:
        return [worker(batch) for batch in batches]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(jobs, len(batches))) as pool:
        return pool.map(worker, batches)


def run_grid(
    tasks: Sequence[GridTask],
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> List[GridCell]:
    """Run every task on the lane kernel, fanning across ``jobs`` workers.

    Cells run in batches of ``lanes`` consecutive tasks, one
    :class:`~repro.cluster.lanes.LaneKernel` per batch (``lanes=1`` runs
    one-lane kernels); ``jobs`` fans the batches over worker processes,
    and one batch or ``jobs <= 1`` runs in-process.  Results always come
    back in task order, so downstream merging is independent of
    scheduling jitter, and the serial and parallel paths round-trip
    through the same columnar packer, so their cells are equal by
    construction.  Lane cells are byte-identical to
    ``ClusterSimulator.run`` ones (the ``lanes_vs_sequential`` oracle and
    hypothesis suite enforce this), so neither ``jobs`` nor ``lanes``
    changes a result.  A task whose scheduler the kernel does not know
    raises ``KeyError``, exactly as :func:`build_scheduler` would, and so
    does a policy task whose digest was never registered.

    With ``cache`` given (and enabled), each task is first looked up by
    its content address; only the misses are simulated (and then stored),
    so a warm cache re-runs nothing.  Cached and fresh cells are
    bit-identical -- the ``cached_vs_fresh`` differential oracle enforces
    this.
    """
    tasks = list(tasks)
    cells: List[Optional[GridCell]] = [None] * len(tasks)
    use_cache = cache is not None and cache.enabled
    if use_cache:
        misses = []
        for i, task in enumerate(tasks):
            hit = cache.get_cell(task)
            if hit is not None:
                cells[i] = hit
            else:
                misses.append(i)
    else:
        misses = list(range(len(tasks)))
    step = max(1, lanes)
    batches = [
        tuple(misses[j:j + step]) for j in range(0, len(misses), step)
    ]
    work = []
    for batch in batches:
        batch_tasks = tuple(tasks[i] for i in batch)
        policies = {
            task.policy: registered_policy(task.policy)
            for task in batch_tasks if task.policy
        }
        work.append((batch_tasks, policies))
    packed = map_batches(_run_lane_batch_packed, work, jobs)
    for batch, blocks in zip(batches, packed):
        for i, block in zip(batch, blocks):
            cell = unpack_cell(tasks[i], block)
            cells[i] = cell
            if use_cache:
                cache.put_cell(cell)
    return cells


@dataclass(frozen=True)
class GridResult:
    """All cells of a grid run, plus deterministic aggregation/rendering."""

    cells: List[GridCell]

    def merged(self) -> List[Tuple[Tuple[str, str, str], Dict[str, float]]]:
        """Mean metrics per ``(workload, pool_label, method)`` group.

        Groups appear in first-encounter (task) order; within a group the
        mean is over seeds.  Pure-python arithmetic on an ordered list, so
        the output is identical however the cells were computed.
        """
        groups: Dict[Tuple[str, str, str], List[GridCell]] = {}
        for cell in self.cells:
            key = (cell.task.workload, cell.task.pool_label, cell.method)
            groups.setdefault(key, []).append(cell)
        merged: List[Tuple[Tuple[str, str, str], Dict[str, float]]] = []
        for key, cells in groups.items():
            n = float(len(cells))
            metrics = {
                name: sum(c.summary[name] for c in cells) / n
                for name in cells[0].summary
            }
            metrics["n_seeds"] = n
            merged.append((key, metrics))
        return merged

    def report(self) -> str:
        """Render the merged grid as a deterministic ASCII table.

        Contains no timestamps or wall-clock values: two runs over the
        same grid produce byte-identical text whatever ``jobs`` was.
        """
        rows = []
        for (workload, pool_label, method), metrics in self.merged():
            rows.append([
                workload,
                pool_label,
                method,
                f"{metrics['total_startup_s']:.1f}",
                f"{metrics['mean_startup_s'] * 1e3:.0f}",
                f"{metrics['cold_starts']:.1f}",
                f"{metrics['evictions']:.1f}",
                f"{metrics['peak_warm_memory_mb']:.0f}",
                f"{int(metrics['n_seeds'])}",
            ])
        return ascii_table(
            ["workload", "pool", "method", "total [s]", "mean [ms]",
             "cold", "evictions", "peak MB", "seeds"],
            rows,
            title="Parallel baseline grid (means over seeds)",
        )


def default_grid(
    scale: Optional[ExperimentScale] = None,
    workloads: Sequence[str] = ("Overall",),
    schedulers: Sequence[str] = GRID_KEYS,
    pool_labels: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    cache: Optional[ExperimentCache] = None,
) -> List[GridTask]:
    """The standard ``(scheduler x workload x pool size x seed)`` grid.

    Capacities are derived per workload from the paper's Tight / Moderate /
    Loose sizing (seed-0 reference run, exactly as the figure experiments
    do; with ``cache`` given the sizing is served content-addressed and the
    reference run is skipped).  ``seeds`` defaults to
    ``range(scale.repeats)``.
    """
    scale = scale or ExperimentScale.from_env()
    seeds = list(seeds) if seeds is not None else list(range(scale.repeats))
    tasks: List[GridTask] = []
    for workload in workloads:
        capacities = pool_sizes_cached(workload, 0, cache)
        labels = list(pool_labels) if pool_labels is not None else list(capacities)
        for pool_label in labels:
            capacity = capacities[pool_label]
            for seed in seeds:
                for scheduler in schedulers:
                    tasks.append(GridTask(
                        scheduler=scheduler,
                        workload=workload,
                        seed=seed,
                        pool_label=pool_label,
                        capacity_mb=capacity,
                    ))
    return tasks


def run_default_grid(
    scale: Optional[ExperimentScale] = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
    **grid_kwargs,
) -> GridResult:
    """Build :func:`default_grid` and run it with ``jobs`` workers.

    ``cache`` (optional) serves both the pool sizing and the grid cells
    content-addressed; the rendered report is byte-identical with the
    cache on, off, cold or warm.  ``lanes`` cells share one lane kernel
    (see :func:`run_grid`).
    """
    tasks = default_grid(scale, cache=cache, **grid_kwargs)
    return GridResult(
        cells=run_grid(tasks, jobs=jobs, cache=cache, lanes=lanes)
    )


def report(result: GridResult) -> str:
    """Module-level report hook matching the other experiment modules."""
    return result.report()
