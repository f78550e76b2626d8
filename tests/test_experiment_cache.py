"""The content-addressed experiment cache: keys, storage, equivalence."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ExperimentCache,
    cache_enabled_by_env,
    config_fingerprint,
    default_cache_root,
    digest_payload,
    pool_sizes_cached,
    version_stamp,
)
from repro.experiments.common import pool_sizes, register_policy_file
from repro.experiments.parallel import (
    MLCR_KEY,
    GridResult,
    GridTask,
    cached_workload,
    run_grid,
)
from repro.cluster.simulator import SimulationConfig

TASK = GridTask(scheduler="lru", workload="LO-Sim", seed=0,
                pool_label="Fixed", capacity_mb=2000.0)

#: ``TASK``'s cell address before grid tasks could name a policy: registry
#: cells must keep it, or every cached cell would be re-simulated.
TASK_CELL_KEY = (
    "de6eda1144bfde59f2a0a075c56267cf458c1685ed611b5a34a38763cc61b052"
)

FIXTURE_POLICY = (Path(__file__).parent / "fixtures" / "mlcr"
                  / "policy.npz")


class TestDigests:
    def test_digest_is_stable(self):
        payload = {"b": 2, "a": [1.5, float("inf")]}
        assert digest_payload(payload) == digest_payload(dict(payload))

    def test_digest_key_order_canonical(self):
        assert (digest_payload({"a": 1, "b": 2})
                == digest_payload({"b": 2, "a": 1}))

    def test_digest_handles_non_finite(self):
        d1 = digest_payload({"x": float("inf")})
        d2 = digest_payload({"x": float("-inf")})
        d3 = digest_payload({"x": float("nan")})
        assert len({d1, d2, d3}) == 3

    def test_config_fingerprint_covers_capacity(self):
        a = config_fingerprint(SimulationConfig(pool_capacity_mb=1000.0))
        b = config_fingerprint(SimulationConfig(pool_capacity_mb=2000.0))
        assert a != b
        assert digest_payload(a) != digest_payload(b)

    def test_cell_key_changes_with_any_task_field(self):
        from dataclasses import replace

        cache = ExperimentCache(enabled=True)
        base = cache.cell_key(TASK)
        assert base == cache.cell_key(TASK)  # deterministic
        for change in (
            {"scheduler": "greedy"},
            {"workload": "Peak"},
            {"seed": 1},
            {"pool_label": "Tight"},
            {"capacity_mb": 2048.0},
        ):
            assert cache.cell_key(replace(TASK, **change)) != base

    def test_registry_cell_key_is_pinned(self):
        assert ExperimentCache(enabled=True).cell_key(TASK) == TASK_CELL_KEY

    def test_policy_tasks_differing_in_policy_get_different_keys(self):
        cache = ExperimentCache(enabled=True)
        a = replace(TASK, scheduler=MLCR_KEY, policy="a" * 64)
        b = replace(a, policy="b" * 64)
        assert len({cache.cell_key(a), cache.cell_key(b),
                    cache.cell_key(TASK)}) == 3

    def test_version_bump_invalidates(self, monkeypatch):
        cache = ExperimentCache(enabled=True)
        base = cache.cell_key(TASK)
        monkeypatch.setattr(cache_mod, "ENGINE_VERSION", 2)
        assert cache.cell_key(TASK) != base
        assert version_stamp()["engine"] == 2


class TestStorage:
    def test_cell_round_trip_is_exact(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        [cell] = run_grid([TASK], cache=cache)
        hit = cache.get_cell(TASK)
        assert hit is not None
        assert hit.method == cell.method
        assert hit.summary == cell.summary  # bit-exact doubles
        assert hit.task == TASK

    def test_policy_cell_round_trip_is_exact(self, tmp_path):
        digest = register_policy_file(FIXTURE_POLICY.read_bytes())
        task = replace(TASK, scheduler=MLCR_KEY, policy=digest)
        cache = ExperimentCache(root=tmp_path, enabled=True)
        [cell] = run_grid([task], cache=cache)
        assert cell.method == "MLCR"
        hit = cache.get_cell(task)
        assert hit == cell  # task, method and bit-exact doubles
        stored = json.loads(
            (tmp_path / "cells" / f"{cache.cell_key(task)}.json").read_text()
        )
        assert stored["task"]["policy"] == digest
        [served] = run_grid([task], cache=cache)
        assert served == cell
        assert cache.hits == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        run_grid([TASK], cache=cache)
        path = tmp_path / "cells" / f"{cache.cell_key(TASK)}.json"
        path.write_text("{not json")
        assert cache.get_cell(TASK) is None
        path.write_text(json.dumps({"method": "x"}))  # missing columns
        assert cache.get_cell(TASK) is None

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=False)
        run_grid([TASK], cache=cache)
        assert not (tmp_path / "cells").exists()
        assert cache.get_cell(TASK) is None
        assert cache.hits == 0

    def test_hit_miss_counters(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        assert cache.get_cell(TASK) is None
        assert (cache.hits, cache.misses) == (0, 1)
        run_grid([TASK], cache=cache)
        assert cache.get_cell(TASK) is not None
        assert cache.hits == 1

    def test_pool_sizes_round_trip(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        fresh = pool_sizes(cached_workload("LO-Sim", 0))
        stored = pool_sizes_cached("LO-Sim", 0, cache)
        assert stored == fresh
        served = pool_sizes_cached("LO-Sim", 0, cache)
        assert served == fresh
        assert list(served) == list(fresh)  # label order preserved
        assert cache.hits == 1

    def test_section_round_trip(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        scale = {"repeats": 2, "train_episodes": 5, "restarts": 1}
        assert cache.get_section("fig8", scale) is None
        cache.put_section("fig8", scale, "the body\nline 2")
        assert cache.get_section("fig8", scale) == "the body\nline 2"
        assert cache.get_section("fig8", {**scale, "repeats": 3}) is None

    def test_prune_empties_every_bucket(self, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        run_grid([TASK], cache=cache)
        pool_sizes_cached("LO-Sim", 0, cache)
        cache.put_section("s", {}, "body")
        assert cache.prune() == 3
        assert cache.get_cell(TASK) is None


class TestEnvOverrides:
    def test_repro_cache_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert not cache_enabled_by_env()
        assert ExperimentCache().enabled is False

    def test_repro_cache_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled_by_env()

    def test_repro_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        assert ExperimentCache(enabled=True).root == tmp_path / "elsewhere"

    def test_explicit_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert ExperimentCache(enabled=True).enabled is True


class TestEquivalence:
    @pytest.fixture(scope="class")
    def tasks(self):
        return [
            GridTask(scheduler=key, workload="LO-Sim", seed=seed,
                     pool_label="Fixed", capacity_mb=1500.0)
            for key in ("lru", "greedy")
            for seed in (0, 1)
        ]

    def test_cached_report_bytes_equal_fresh(self, tasks, tmp_path):
        fresh = GridResult(cells=run_grid(tasks)).report()
        cache = ExperimentCache(root=tmp_path, enabled=True)
        cold = GridResult(cells=run_grid(tasks, cache=cache)).report()
        warm = GridResult(cells=run_grid(tasks, cache=cache)).report()
        assert cold == fresh
        assert warm == fresh

    def test_warm_run_is_all_hits(self, tasks, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        run_grid(tasks, cache=cache)
        assert cache.misses == len(tasks)
        run_grid(tasks, cache=cache)
        assert cache.hits == len(tasks)

    def test_parallel_and_serial_share_cache_entries(self, tasks, tmp_path):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        serial = run_grid(tasks, jobs=1, cache=cache)
        warm_parallel = run_grid(tasks, jobs=2, cache=cache)
        assert ([c.summary for c in warm_parallel]
                == [c.summary for c in serial])
        assert cache.hits == len(tasks)
