"""Tests for the startup cost model and its paper calibration bands."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.faults import FaultConfig, FaultModel
from repro.containers.costmodel import (
    CostModelParams,
    StartupCostModel,
    StartupPhase,
)
from repro.containers.matching import MatchLevel
from repro.workloads.functions import fstartbench_functions

from conftest import make_image


@pytest.fixture
def model():
    return StartupCostModel()


class TestParams:
    def test_defaults_valid(self):
        CostModelParams()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(bandwidth_mb_per_s=0.0)

    def test_negative_create_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(create_s=-1.0)

    def test_warm_factor_bounds(self):
        with pytest.raises(ValueError):
            CostModelParams(warm_function_factor=1.5)
        with pytest.raises(ValueError):
            CostModelParams(warm_runtime_factor=-0.1)


class TestBreakdown:
    def test_latency_strictly_decreases_with_match_depth(self, model):
        image = make_image("f", runtime_names=("flask", "numpy"))
        latencies = [
            model.latency_s(image, lvl, 0.5) for lvl in MatchLevel
        ]
        assert latencies == sorted(latencies, reverse=True)
        assert len(set(latencies)) == 4

    def test_cold_pays_create_not_clean(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.NO_MATCH, 0.1)
        assert bd.create_s > 0
        assert bd.clean_s == 0.0

    def test_warm_pays_clean_not_create(self, model):
        for lvl in (MatchLevel.L1, MatchLevel.L2, MatchLevel.L3):
            bd = model.breakdown(make_image("f"), lvl, 0.1)
            assert bd.create_s == 0.0
            assert bd.clean_s > 0

    def test_l3_pulls_nothing(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.L3, 0.5)
        assert bd.pull_s == 0.0
        assert bd.install_s == 0.0

    def test_l2_pulls_only_runtime(self, model):
        image = make_image("f", runtime_names=("tensorflow",))
        bd = model.breakdown(image, MatchLevel.L2, 0.0)
        expected = model.pull_time_s(image.runtime_packages)
        assert bd.pull_s == pytest.approx(expected)

    def test_l1_pulls_language_and_runtime(self, model):
        image = make_image("f")
        bd = model.breakdown(image, MatchLevel.L1, 0.0)
        expected = model.pull_time_s(
            image.language_packages | image.runtime_packages
        )
        assert bd.pull_s == pytest.approx(expected)

    def test_cold_pulls_everything(self, model):
        image = make_image("f")
        bd = model.breakdown(image, MatchLevel.NO_MATCH, 0.0)
        assert bd.pull_s == pytest.approx(
            model.pull_time_s(frozenset(image.packages))
        )

    def test_function_init_warm_discount_at_l3(self, model):
        init = 2.0
        cold = model.breakdown(make_image("f"), MatchLevel.NO_MATCH, init)
        warm = model.breakdown(make_image("f"), MatchLevel.L3, init)
        assert cold.function_init_s == pytest.approx(init)
        assert warm.function_init_s == pytest.approx(
            init * model.params.warm_function_factor
        )

    def test_negative_function_init_rejected(self, model):
        with pytest.raises(ValueError):
            model.breakdown(make_image("f"), MatchLevel.L3, -0.1)

    def test_total_is_sum_of_phases(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.L1, 0.3)
        assert bd.total_s == pytest.approx(sum(bd.as_dict().values()))

    def test_as_dict_covers_all_phases(self, model):
        bd = model.breakdown(make_image("f"), MatchLevel.NO_MATCH, 0.3)
        assert set(bd.as_dict()) == set(StartupPhase)

    def test_jvm_runtime_init_dominates_python(self, model):
        java = make_image("j", lang_name="java")
        python = make_image("p", lang_name="python")
        assert model.runtime_init_time_s(java) > 5 * model.runtime_init_time_s(
            python
        )


class TestPaperCalibration:
    """Section II bands measured on the FStartBench functions."""

    def test_pull_share_of_cold_start(self, model):
        """Code pulling (fetch+install) is 47-89 % of cold start."""
        for spec in fstartbench_functions():
            bd = model.breakdown(spec.image, MatchLevel.NO_MATCH,
                                 spec.function_init_s)
            share = (bd.pull_s + bd.install_s) / bd.total_s
            assert 0.40 <= share <= 0.92, (spec.name, share)

    def test_cold_to_exec_ratio_band(self, model):
        """Cold start is 1.3x-166x the mean execution time."""
        for spec in fstartbench_functions():
            cold = model.latency_s(spec.image, MatchLevel.NO_MATCH,
                                   spec.function_init_s)
            ratio = cold / spec.exec_time_mean_s
            assert 1.2 <= ratio <= 170, (spec.name, ratio)

    def test_full_warm_start_much_faster(self, model):
        """A full (L3) warm start is many times faster than cold."""
        speedups = []
        for spec in fstartbench_functions():
            cold = model.latency_s(spec.image, MatchLevel.NO_MATCH,
                                   spec.function_init_s)
            warm = model.latency_s(spec.image, MatchLevel.L3,
                                   spec.function_init_s)
            speedups.append(cold / warm)
        assert max(speedups) > 10  # paper: up to 14x for W-style reuse


@given(init=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_monotone_savings_hold_for_any_function_init(init):
    model = StartupCostModel()
    image = make_image("f", runtime_names=("flask", "numpy"))
    latencies = [model.latency_s(image, lvl, init) for lvl in MatchLevel]
    assert all(a >= b for a, b in zip(latencies, latencies[1:]))


def _bits(breakdown):
    """Every phase and the total as exact float bit patterns."""
    values = dataclasses.astuple(breakdown) + (breakdown.total_s,)
    return tuple(float(v).hex() for v in values)


class TestMemo:
    """One memo per model: repeat calls return the first call's prices."""

    def test_breakdown_repeat_bit_equal_to_fresh_model(self):
        memo = StartupCostModel()
        for spec in fstartbench_functions():
            for lvl in MatchLevel:
                args = (spec.image, lvl, spec.function_init_s)
                first = memo.breakdown(*args)
                fresh = StartupCostModel().breakdown(*args)
                again = memo.breakdown(*args)
                assert again is first
                assert _bits(again) == _bits(fresh)
                # total_s sums the phases left to right, in phase order.
                assert first.total_s == sum(first.as_dict().values())
                # The lane prices with a plain-int match: same entry.
                assert memo.breakdown(spec.image, int(lvl),
                                      spec.function_init_s) is first
                assert memo.latency_s(spec.image, int(lvl),
                                      spec.function_init_s).hex() \
                    == fresh.total_s.hex()

    def test_latency_repeat_bit_equal_to_fresh_model(self):
        memo = StartupCostModel()
        for spec in fstartbench_functions():
            for lvl in MatchLevel:
                args = (spec.image, lvl, spec.function_init_s)
                memo.latency_s(*args)
                assert memo.latency_s(*args).hex() \
                    == StartupCostModel().latency_s(*args).hex()

    def test_delta_repeat_bit_equal_to_fresh_model(self):
        memo = StartupCostModel()
        specs = fstartbench_functions()
        pairs = [
            (f, c) for f in specs for c in specs
            if f.image.os_packages == c.image.os_packages
        ]
        assert len(pairs) > len(specs)  # some cross-function pairs
        for f, c in pairs:
            args = (f.image, c.image, f.function_init_s)
            first = memo.delta_breakdown(*args)
            fresh = StartupCostModel().delta_breakdown(*args)
            assert memo.delta_breakdown(*args) is first
            assert _bits(first) == _bits(fresh)

    def test_pickle_round_trip_drops_memo(self, model):
        spec = fstartbench_functions()[0]
        expected = model.latency_s(spec.image, MatchLevel.L2,
                                   spec.function_init_s)
        assert model._memo
        clone = pickle.loads(pickle.dumps(model))
        assert clone._memo == {}
        assert clone.params == model.params
        assert clone.latency_s(spec.image, MatchLevel.L2,
                               spec.function_init_s) == expected
        assert model._memo  # the original keeps its memo

    def test_negative_init_raises_every_time(self, model):
        image = make_image("f")
        for _ in range(2):
            with pytest.raises(ValueError):
                model.breakdown(image, MatchLevel.L1, -0.1)
            with pytest.raises(ValueError):
                model.latency_s(image, MatchLevel.L1, -0.1)
            with pytest.raises(ValueError):
                model.delta_breakdown(image, image, -0.1)
        assert model._memo == {}

    def test_os_mismatched_delta_raises_every_time(self, model):
        alpine = make_image("a", os_name="alpine")
        debian = make_image("d", os_name="debian")
        for _ in range(2):
            with pytest.raises(ValueError):
                model.delta_breakdown(alpine, debian, 0.1)
        assert model._memo == {}

    def test_straggler_leaves_memoized_breakdown_unchanged(self, model):
        spec = fstartbench_functions()[0]
        args = (spec.image, MatchLevel.NO_MATCH, spec.function_init_s)
        shared = model.breakdown(*args)
        pull_s = shared.pull_s
        faults = FaultModel(FaultConfig(straggler_prob=1.0))
        stretched, straggled = faults.perturb_breakdown(shared)
        assert straggled
        assert stretched is not shared
        assert stretched.pull_s == pull_s * faults.config.straggler_factor
        assert stretched.total_s > shared.total_s
        assert model.breakdown(*args) is shared
        assert shared.pull_s == pull_s
