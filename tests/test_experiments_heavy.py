"""Micro-scale runs of the training-heavy experiment modules.

Uses a deliberately tiny :class:`ExperimentScale` so the fig8/9/10/11,
overhead and ablation code paths are exercised inside the unit suite in
seconds; the real budgets live in ``benchmarks/``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig8_overall,
    fig9_trajectory,
    fig10_memory,
    fig11_benchmarks,
    overhead,
)
from repro.cli import main
from repro.experiments.cache import ExperimentCache
from repro.experiments.common import (
    ExperimentScale,
    clear_mlcr_cache,
    evaluate_scheduler,
    train_mlcr_for,
)
from repro.experiments.parallel import BASELINE_KEYS, build_scheduler
from repro.experiments.runall import SECTIONS, run_all
from repro.workloads.fstartbench import overall_workload

MICRO = ExperimentScale(
    repeats=1,
    train_episodes=1,
    demo_episodes=1,
    n_slots=6,
    model_dim=8,
    fig11_pool_fractions=(1.0,),
    restarts=1,
)


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_mlcr_cache()
    yield
    clear_mlcr_cache()


@pytest.mark.slow
class TestFig8Micro:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8_overall.run(MICRO)

    def test_all_cells_present(self, result):
        assert len(result.cells) == 5 * 3  # methods x pool sizes

    def test_capacities_ordered(self, result):
        caps = list(result.capacities.values())
        assert caps == sorted(caps)

    def test_report_renders(self, result):
        text = fig8_overall.report(result)
        assert "MLCR" in text and "Tight" in text

    def test_reduction_helper(self, result):
        value = result.mlcr_reduction_vs("LRU", "Tight")
        assert -100.0 < value < 100.0


@pytest.mark.slow
class TestFig9Micro:
    def test_series_shapes(self):
        result = fig9_trajectory.run(MICRO)
        assert len(result.arrival_index) == 400
        assert result.greedy_cum_latency.shape == result.mlcr_cum_latency.shape
        text = fig9_trajectory.report(result)
        assert "final latency gap" in text


@pytest.mark.slow
class TestFig10Micro:
    def test_rows_and_report(self):
        result = fig10_memory.run(MICRO)
        assert {r.method for r in result.rows} == {
            "LRU", "FaasCache", "KeepAlive", "Greedy-Match", "MLCR"
        }
        assert all(0.0 <= r.pool_utilization <= 1.0 + 1e-9
                   for r in result.rows)
        assert "pool util" in fig10_memory.report(result)


@pytest.mark.slow
class TestFig11Micro:
    def test_subfigure_a(self):
        result = fig11_benchmarks.run_subfigure("a:similarity", MICRO)
        assert {b.workload for b in result.boxes} == {"HI-Sim", "LO-Sim"}
        assert "Fig 11a" in fig11_benchmarks.report(result)

    def test_unknown_subfigure(self):
        with pytest.raises(KeyError):
            fig11_benchmarks.run_subfigure("z:nope", MICRO)


@pytest.mark.slow
class TestOverheadMicro:
    def test_overhead_runs(self):
        result = overhead.run(MICRO)
        assert result.decisions == 400
        assert result.mean_decision_ms > 0
        assert "decision time" in overhead.report(result)


@pytest.mark.slow
class TestSectionParity:
    """The figure sections run every cell on ``run_grid``; their numbers
    must be the sequential engine's, for any ``jobs`` and ``lanes``."""

    def test_fig8_cells_equal_sequential_means(self):
        result = fig8_overall.run(MICRO)
        for pool_label, capacity in result.capacities.items():
            mlcr = train_mlcr_for(
                "Overall", lambda s: overall_workload(seed=s), capacity,
                MICRO,
            )
            runs = {}
            for seed in range(MICRO.repeats):
                workload = overall_workload(seed=seed)
                schedulers = [build_scheduler(k) for k in BASELINE_KEYS]
                for scheduler in schedulers + [mlcr]:
                    res = evaluate_scheduler(scheduler, workload, capacity,
                                             pool_label)
                    runs.setdefault(res.method, []).append(res)
            assert list(runs) == fig8_overall.METHOD_ORDER
            for method, rows in runs.items():
                cell = result.cell(method, pool_label)
                for name in ("total_startup_s", "cold_starts", "evictions",
                             "peak_warm_memory_mb"):
                    expected = float(np.mean([getattr(r, name)
                                              for r in rows]))
                    assert getattr(cell, name) == expected, (method, name)

    def test_ablation_rows_equal_across_jobs_and_lanes(self):
        serial = ablations.run(MICRO)
        fanned = ablations.run(MICRO, jobs=2, lanes=4)
        assert serial == fanned
        assert [r.variant for r in serial.rows] == list(ablations.VARIANTS)


@pytest.mark.slow
class TestRunAll:
    """The section driver: one pass over :data:`SECTIONS` at micro scale."""

    SCALE = replace(MICRO, stream_functions=20, stream_invocations=400)

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        cache = ExperimentCache(root=tmp_path_factory.mktemp("cache"),
                                enabled=True)
        cold = run_all(scale=self.SCALE, cache=cache)
        warm = run_all(scale=self.SCALE, cache=cache)
        return cold, warm, cache

    def test_warm_cache_report_is_byte_identical(self, reports):
        cold, warm, _ = reports
        assert warm == cold
        assert "FAILED" not in cold

    def test_sections_appear_in_table_order(self, reports):
        cold, _, _ = reports
        positions = [cold.index(f"\n## {s.title}\n") for s in SECTIONS]
        assert positions == sorted(positions)

    def test_single_section_body_equals_its_runall_section(self, reports,
                                                           capsys):
        cold, _, _ = reports
        assert main(["experiment", "fig2"]) == 0
        body = capsys.readouterr().out
        title = next(s.title for s in SECTIONS if s.key == "fig2")
        assert f"\n## {title}\n\n```\n{body}```" in cold

    def test_figures_writes_seven_svgs(self, reports, tmp_path):
        _, _, cache = reports
        report = run_all(scale=self.SCALE, cache=cache,
                         figures_dir=tmp_path / "figs")
        svgs = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert svgs == sorted([
            "fig8a_latency.svg", "fig8b_cold_starts.svg",
            "fig9_trajectory.svg", "fig10_memory.svg", "fig11a.svg",
            "fig11b.svg", "fig11c.svg",
        ])
        assert "\n## Figures\n" in report
