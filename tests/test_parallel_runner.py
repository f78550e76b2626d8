"""Tests for the parallel experiment runner (repro.experiments.parallel)."""

import pytest

from repro.experiments.common import evaluate_scheduler
from repro.experiments.parallel import (
    BASELINE_KEYS,
    GRID_KEYS,
    GridResult,
    GridTask,
    SCHEDULER_FACTORIES,
    build_scheduler,
    cached_workload,
    default_grid,
    run_grid,
)


def small_tasks(schedulers=("lru", "greedy"), seeds=(0,)):
    """A tiny but multi-cell grid over the cheapest workload."""
    return [
        GridTask(scheduler=s, workload="LO-Sim", seed=seed,
                 pool_label="Tight", capacity_mb=800.0)
        for seed in seeds for s in schedulers
    ]


class TestRegistry:
    def test_baselines_subset_of_registry(self):
        assert set(BASELINE_KEYS) <= set(SCHEDULER_FACTORIES)

    def test_grid_keys_extend_baselines(self):
        assert set(BASELINE_KEYS) < set(GRID_KEYS)
        assert set(GRID_KEYS) <= set(SCHEDULER_FACTORIES)
        assert {"mpc", "lending", "offline"} <= set(GRID_KEYS)

    def test_build_scheduler(self):
        assert build_scheduler("greedy").name == "Greedy-Match"

    def test_build_scheduler_unknown(self):
        with pytest.raises(KeyError):
            build_scheduler("nope")


class TestRunGrid:
    def test_serial_matches_single_task(self):
        task = small_tasks(schedulers=("lru",))[0]
        sequential = evaluate_scheduler(
            build_scheduler(task.scheduler),
            cached_workload(task.workload, task.seed),
            task.capacity_mb,
        )
        [via_grid] = run_grid([task], jobs=1)
        assert via_grid.summary == sequential.result.telemetry.summary()
        assert via_grid.method == "LRU"
        assert via_grid.task == task

    def test_parallel_is_deterministic(self):
        """jobs=2 must reproduce the serial cells and report byte-for-byte."""
        tasks = small_tasks(seeds=(0, 1))
        serial = run_grid(tasks, jobs=1)
        fanned = run_grid(tasks, jobs=2)
        assert [c.task for c in fanned] == [c.task for c in serial]
        assert [c.summary for c in fanned] == [c.summary for c in serial]
        assert GridResult(fanned).report() == GridResult(serial).report()

    def test_oversubscribed_jobs_clamped(self):
        tasks = small_tasks(schedulers=("lru",))
        cells = run_grid(tasks, jobs=32)
        assert len(cells) == len(tasks)


class TestGridResult:
    def test_merged_means_over_seeds(self):
        tasks = small_tasks(schedulers=("lru",), seeds=(0, 1))
        result = GridResult(run_grid(tasks, jobs=1))
        [(key, metrics)] = result.merged()
        assert key == ("LO-Sim", "Tight", "LRU")
        assert metrics["n_seeds"] == 2.0
        expected = sum(c.summary["cold_starts"] for c in result.cells) / 2.0
        assert metrics["cold_starts"] == pytest.approx(expected)

    def test_report_lists_every_group(self):
        result = GridResult(run_grid(small_tasks(), jobs=1))
        text = result.report()
        assert "LRU" in text and "Greedy-Match" in text
        assert "Parallel baseline grid" in text


class TestDefaultGrid:
    def test_grid_shape_and_determinism(self):
        tasks = default_grid(workloads=("LO-Sim",), seeds=[0, 1],
                             pool_labels=("Tight", "Loose"))
        # workloads x pools x seeds x schedulers
        assert len(tasks) == 1 * 2 * 2 * len(GRID_KEYS)
        assert tasks == default_grid(workloads=("LO-Sim",), seeds=[0, 1],
                                     pool_labels=("Tight", "Loose"))
        labels = {t.pool_label for t in tasks}
        assert labels == {"Tight", "Loose"}
        tight = next(t for t in tasks if t.pool_label == "Tight")
        loose = next(t for t in tasks if t.pool_label == "Loose")
        assert tight.capacity_mb < loose.capacity_mb
