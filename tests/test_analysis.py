"""Tests for analysis helpers (stats, reports, breakdown tables)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.breakdown import breakdown_table
from repro.analysis.report import ascii_bar_chart, ascii_table, format_seconds
from repro.analysis.stats import box_stats, mean_confidence_interval, reduction_pct
from repro.containers.costmodel import StartupBreakdown


class TestBoxStats:
    def test_five_numbers(self):
        s = box_stats([1, 2, 3, 4, 5])
        assert s.minimum == 1 and s.maximum == 5
        assert s.median == 3
        assert s.mean == 3.0

    def test_single_value(self):
        s = box_stats([7.0])
        assert (s.minimum, s.q1, s.median, s.q3, s.maximum) == (7.0,) * 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats([])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_ordering_invariant(self, values):
        s = box_stats(values)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        # The mean can drift past the extremes by a few ulps in float64.
        tol = 1e-9 * max(1.0, abs(s.minimum), abs(s.maximum))
        assert s.minimum - tol <= s.mean <= s.maximum + tol


class TestCI:
    def test_single_sample_zero_width(self):
        mean, half = mean_confidence_interval([5.0])
        assert mean == 5.0 and half == 0.0

    def test_wider_spread_wider_ci(self):
        _, tight = mean_confidence_interval([1.0, 1.1, 0.9])
        _, wide = mean_confidence_interval([0.0, 2.0, -2.0])
        assert wide > tight

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])


class TestReduction:
    def test_positive_improvement(self):
        assert reduction_pct(100.0, 47.0) == pytest.approx(53.0)

    def test_negative_means_regression(self):
        assert reduction_pct(100.0, 120.0) == pytest.approx(-20.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            reduction_pct(0.0, 1.0)


class TestAsciiTable:
    def test_renders_all_rows(self):
        out = ascii_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 5  # title, header, sep, 2 rows

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [["1", "2"]])

    def test_alignment(self):
        out = ascii_table(["col"], [["x"], ["longer"]])
        rows = out.splitlines()[2:]
        assert len({len(r) for r in rows}) == 1


class TestBarChart:
    def test_bars_scale(self):
        out = ascii_bar_chart(["a", "b"], [10.0, 5.0], width=10)
        a_line, b_line = out.splitlines()
        assert a_line.count("#") == 10
        assert b_line.count("#") == 5

    def test_zero_values(self):
        out = ascii_bar_chart(["a"], [0.0])
        assert "#" in out  # min one mark

    def test_empty(self):
        assert ascii_bar_chart([], [], title="t") == "t"

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])


class TestFormatSeconds:
    def test_small(self):
        assert format_seconds(1.234).strip() == "1.23s"

    def test_large(self):
        assert format_seconds(123.4).strip() == "123.4s"


class TestBreakdownTable:
    def test_contains_phases_and_totals(self):
        bd = StartupBreakdown(create_s=0.5, pull_s=1.0, function_init_s=0.25)
        out = breakdown_table({"cold": bd}, title="T")
        assert "create" in out and "pull" in out
        assert "1.75" in out  # total
