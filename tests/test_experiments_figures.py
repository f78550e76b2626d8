"""Tests for SVG figure rendering of experiment results."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.analysis.stats import box_stats
from repro.experiments.fig8_overall import Fig8Cell, Fig8Result, METHOD_ORDER
from repro.experiments.fig9_trajectory import Fig9Result
from repro.experiments.fig10_memory import Fig10Result, Fig10Row
from repro.experiments.fig11_benchmarks import Fig11Box, Fig11Result
from repro.experiments.figures import (
    fig8_cold_chart,
    fig8_latency_chart,
    fig9_chart,
    fig10_chart,
    fig11_chart,
    save_figures,
)


@pytest.fixture
def fig8_result():
    cells = []
    for pool in ("Tight", "Loose"):
        for i, method in enumerate(METHOD_ORDER):
            cells.append(Fig8Cell(
                method=method, pool_label=pool,
                total_startup_s=100.0 - 5 * i,
                cold_starts=50.0 - i, evictions=float(i),
                peak_warm_memory_mb=1000.0,
            ))
    return Fig8Result(
        cells=cells,
        capacities={"Tight": 500.0, "Loose": 2500.0},
        repeats=1,
    )


@pytest.fixture
def fig9_result():
    n = 50
    return Fig9Result(
        arrival_index=np.arange(1, n + 1),
        greedy_cum_latency=np.cumsum(np.full(n, 1.0)),
        mlcr_cum_latency=np.cumsum(np.full(n, 0.8)),
        greedy_cum_cold=np.arange(n),
        mlcr_cum_cold=np.arange(n),
        capacity_mb=2000.0,
    )


@pytest.fixture
def fig10_result():
    rows = [
        Fig10Row(method=m, peak_warm_memory_mb=900.0 - 50 * i,
                 pool_utilization=0.9, evictions=1.0,
                 keep_alive_rejections=0.0, total_startup_s=100.0)
        for i, m in enumerate(METHOD_ORDER)
    ]
    return Fig10Result(rows=rows, capacity_mb=1000.0)


@pytest.fixture
def fig11_result():
    stats = box_stats([10.0, 20.0, 30.0, 40.0])
    boxes = [
        Fig11Box(workload=w, method=m, stats=stats, samples=(10.0,))
        for w in ("HI-Sim", "LO-Sim")
        for m in METHOD_ORDER
    ]
    return Fig11Result(subfigure="a:similarity", boxes=boxes,
                       loose_mb={"HI-Sim": 1.0, "LO-Sim": 1.0}, repeats=1)


def is_valid_svg(canvas) -> bool:
    root = ET.fromstring(canvas.to_svg())
    return root.tag.endswith("svg")


class TestCharts:
    def test_fig8_charts(self, fig8_result):
        assert is_valid_svg(fig8_latency_chart(fig8_result))
        assert is_valid_svg(fig8_cold_chart(fig8_result))

    def test_fig9_chart(self, fig9_result):
        assert is_valid_svg(fig9_chart(fig9_result))

    def test_fig10_chart(self, fig10_result):
        assert is_valid_svg(fig10_chart(fig10_result))

    def test_fig11_chart(self, fig11_result):
        assert is_valid_svg(fig11_chart(fig11_result))


class TestSaveFigures:
    def test_writes_known_results(self, tmp_path, fig8_result, fig9_result,
                                  fig10_result, fig11_result):
        written = save_figures(
            {
                "fig8": fig8_result,
                "fig9": fig9_result,
                "fig10": fig10_result,
                "fig11a": fig11_result,
                "unknown": object(),
            },
            tmp_path,
        )
        names = {p.name for p in written}
        assert names == {
            "fig8a_latency.svg", "fig8b_cold_starts.svg",
            "fig9_trajectory.svg", "fig10_memory.svg", "fig11a.svg",
        }
        for path in written:
            ET.parse(path)  # well-formed XML

    def test_empty_results(self, tmp_path):
        assert save_figures({}, tmp_path) == []
