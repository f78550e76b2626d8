"""Tests for zygote containers, pre-warming and delta pricing."""

import pytest

from repro.cluster.eviction import LRUEviction
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.containers.matching import MatchLevel
from repro.schedulers.zygote import ZygoteScheduler, build_zygote_images
from repro.workloads.functions import function_by_id, functions_by_ids
from repro.workloads.workload import Workload

from conftest import make_invocation


def debian_python_specs():
    """Functions 5-8, 10, 13: one (Debian, Python) family."""
    return functions_by_ids([5, 6, 7, 8, 10, 13])


class TestBuildZygoteImages:
    def test_one_zygote_per_family(self):
        specs = functions_by_ids(range(1, 14))
        zygotes = build_zygote_images(specs)
        families = {
            (s.image.os_packages, s.image.language_packages) for s in specs
        }
        assert len(zygotes) == len(families)

    def test_zygote_covers_family(self):
        zygotes = build_zygote_images(debian_python_specs())
        assert len(zygotes) == 1
        zygote = zygotes[0]
        for spec in debian_python_specs():
            assert frozenset(spec.image.packages) <= frozenset(zygote.packages)

    def test_zygote_memory_exceeds_members(self):
        zygotes = build_zygote_images(debian_python_specs())
        biggest_member = max(
            s.image.total_size_mb for s in debian_python_specs()
        )
        assert zygotes[0].total_size_mb >= biggest_member


class TestPrewarm:
    def test_prewarmed_container_joins_pool(self):
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0), LRUEviction()
        )
        zygote = build_zygote_images(debian_python_specs())[0]
        container = sim.prewarm(zygote)
        assert container.container_id in sim.pool
        assert container.is_idle

    def test_prewarm_respects_capacity(self):
        zygote = build_zygote_images(debian_python_specs())[0]
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=zygote.memory_mb * 1.5),
            LRUEviction(),
        )
        first = sim.prewarm(zygote)
        second = sim.prewarm(zygote)  # evicts the first (LRU)
        assert second.container_id in sim.pool
        assert first.container_id not in sim.pool
        assert sim.telemetry.evictions == 1

    def test_prewarm_samples_pool_memory(self):
        # Regression: prewarm must sample the pool occupancy once the
        # container lands, so prewarm-only experiments report an accurate
        # warm-memory peak.
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0), LRUEviction()
        )
        zygote = build_zygote_images(debian_python_specs())[0]
        assert sim.telemetry.peak_warm_memory_mb == 0.0
        sim.prewarm(zygote)
        assert sim.telemetry.peak_warm_memory_mb == pytest.approx(
            zygote.memory_mb
        )
        sim.prewarm(zygote)
        assert sim.pool.used_mb == pytest.approx(2 * zygote.memory_mb)
        assert sim.telemetry.peak_warm_memory_mb == sim.pool.used_mb


class TestZygoteScheduling:
    def _run(self, delta_pricing: bool):
        specs = debian_python_specs()
        zygote = build_zygote_images(specs)[0]
        invocations = [
            make_invocation(specs[i % len(specs)], i, arrival_time=30.0 * i,
                            execution_time_s=0.5)
            for i in range(6)
        ]
        workload = Workload.from_invocations("zy", invocations)
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0,
                             delta_pricing=delta_pricing),
            LRUEviction(),
        )
        sim.prewarm(zygote)
        return sim.run(workload, ZygoteScheduler()).telemetry

    def test_zero_cold_starts_with_zygote(self):
        t = self._run(delta_pricing=True)
        assert t.cold_starts == 0

    def test_zygote_image_preserved_across_functions(self):
        t = self._run(delta_pricing=True)
        # Every start reused the same zygote container.
        assert len({r.container_id for r in t.records}) == 1

    def test_delta_pricing_is_warm_fast(self):
        t = self._run(delta_pricing=True)
        spec = function_by_id(13)
        cold = t.records[0]
        # All packages are present in the zygote: no pull, tiny latencies.
        for r in t.records:
            assert r.breakdown.pull_s == 0.0

    def test_level_pricing_penalizes_zygote(self):
        """Without delta pricing the zygote pays L1-level costs (its levels
        never equal a member's), so zygote reuse is priced pessimistically."""
        warm_delta = self._run(delta_pricing=True)
        warm_level = self._run(delta_pricing=False)
        assert (warm_level.total_startup_latency_s
                > warm_delta.total_startup_latency_s)

    def test_falls_back_to_cold_without_covering_container(self):
        specs = debian_python_specs()
        workload = Workload.from_invocations("zy", [
            make_invocation(specs[0], 0, arrival_time=0.0)
        ])
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=10_000.0), LRUEviction()
        )
        t = sim.run(workload, ZygoteScheduler()).telemetry
        assert t.cold_starts == 1
