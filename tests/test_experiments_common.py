"""Tests for shared experiment infrastructure (fast pieces only)."""

import pytest

from repro.experiments.common import (
    ExperimentScale,
    evaluate_scheduler,
    loose_capacity,
    make_training_factory,
    pool_sizes,
)
from repro.core.trainer import EVAL_EPISODE_BASE
from repro.experiments.parallel import BASELINE_KEYS, build_scheduler
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.workloads.fstartbench import overall_workload


class TestScale:
    def test_from_env_default_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        scale = ExperimentScale.from_env()
        assert scale.repeats == 3

    def test_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        scale = ExperimentScale.from_env()
        assert scale.repeats > 3
        assert scale.train_episodes > 12

    def test_mlcr_config_valid(self):
        cfg = ExperimentScale.from_env().mlcr_config()
        assert cfg.n_slots >= 4


class TestPoolSizing:
    @pytest.fixture(scope="class")
    def workload(self):
        return overall_workload(seed=0)

    def test_levels_ordered(self, workload):
        sizes = pool_sizes(workload)
        assert sizes["Tight"] < sizes["Moderate"] < sizes["Loose"]
        assert sizes["Tight"] == pytest.approx(0.2 * sizes["Loose"])

    def test_loose_is_positive_and_finite(self, workload):
        loose = loose_capacity(workload)
        assert 0 < loose < float("inf")


class TestEvaluate:
    def test_evaluate_scheduler_summary(self):
        wl = overall_workload(seed=0)
        res = evaluate_scheduler(GreedyMatchScheduler(), wl, 4096.0, "x")
        assert res.method == "Greedy-Match"
        assert res.total_startup_s > 0
        assert res.cold_starts >= 1
        assert res.pool_label == "x"

    def test_baseline_keys_names(self):
        names = [build_scheduler(key).name for key in BASELINE_KEYS]
        assert names == ["LRU", "FaasCache", "KeepAlive", "Greedy-Match"]


class TestTrainingFactory:
    def test_eval_indices_map_to_held_out_seeds(self):
        seen = []
        factory = make_training_factory(
            lambda s: seen.append(s) or overall_workload(seed=s),
            ExperimentScale.from_env(),
        )
        factory(0)
        factory(EVAL_EPISODE_BASE)
        train_seed, eval_seed = seen
        assert train_seed != eval_seed
        assert eval_seed >= 1500
