"""Property and negative tests for the runtime invariant monitors.

Positive direction: random workloads, every scheduler family, sharded and
concurrency-limited clusters, and fault injection (crashes + stragglers)
must all complete with ``SimulationConfig.verify`` on and zero violations.

Negative direction: each monitor must actually *fire* -- for every
invariant there is a seeded-corruption test that breaks exactly that
invariant and asserts the matching :class:`InvariantViolation`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultConfig
from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.experiments.parallel import SCHEDULER_FACTORIES, build_scheduler
from repro.verify.invariants import (
    DEFAULT_MONITORS,
    InvariantViolation,
    TTLMonitor,
    VerificationHarness,
)
from repro.workloads.fstartbench import WORKLOAD_BUILDERS, build_workload
from repro.workloads.functions import function_by_id
from repro.workloads.workload import Invocation, Workload

ALL_SCHEDULERS = tuple(sorted(SCHEDULER_FACTORIES))


def random_workload(seed: int, n: int = 40) -> Workload:
    """A small random workload over four Table-II functions."""
    rng = np.random.default_rng(seed)
    specs = [function_by_id(i) for i in (1, 3, 4, 7)]
    invocations = [
        Invocation(
            invocation_id=i,
            spec=specs[int(rng.integers(len(specs)))],
            arrival_time=float(rng.uniform(0.0, 60.0)),
            execution_time_s=float(rng.uniform(0.1, 2.0)),
        )
        for i in range(n)
    ]
    return Workload.from_invocations(f"prop-{seed}", invocations)


def run_verified(workload: Workload, scheduler_key: str,
                 **config_overrides) -> ClusterSimulator:
    """Run one cell with the invariant monitors attached; returns the sim."""
    scheduler = build_scheduler(scheduler_key)
    scheduler.reset()
    if hasattr(scheduler, "observe_workload"):
        scheduler.observe_workload(workload)
    eviction = (
        scheduler.make_eviction_policy()
        if hasattr(scheduler, "make_eviction_policy")
        else None
    )
    config = SimulationConfig(
        pool_capacity_mb=config_overrides.pop("pool_capacity_mb", 1500.0),
        verify=True,
        **config_overrides,
    )
    sim = ClusterSimulator(config, eviction)
    sim.run(workload, scheduler)
    return sim


# ---------------------------------------------------------------------------
# Positive properties: monitors never trip on legitimate runs
# ---------------------------------------------------------------------------

@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheduler=st.sampled_from(ALL_SCHEDULERS),
    crash_prob=st.sampled_from([0.0, 0.05, 0.2]),
    straggler_prob=st.sampled_from([0.0, 0.1, 0.3]),
    per_worker_pools=st.booleans(),
    worker_concurrency=st.sampled_from([None, 1, 2]),
)
@settings(max_examples=30, deadline=None)
def test_random_runs_never_trip_monitors(
    seed, scheduler, crash_prob, straggler_prob, per_worker_pools,
    worker_concurrency,
):
    """Random workload x scheduler x faults x topology: zero violations."""
    sim = run_verified(
        random_workload(seed),
        scheduler,
        faults=FaultConfig(
            crash_prob=crash_prob,
            straggler_prob=straggler_prob,
            seed=seed,
        ),
        per_worker_pools=per_worker_pools,
        worker_concurrency=worker_concurrency,
    )
    assert sim.verifier is not None
    assert sim.verifier.checks_run > 0


@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_fstartbench_cells_clean(scheduler):
    """One full FStartBench workload per scheduler, monitors attached."""
    sim = run_verified(build_workload("LO-Sim", seed=0), scheduler)
    assert sim.verifier.checks_run > 0


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(WORKLOAD_BUILDERS))
@pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
def test_full_matrix_clean_and_faulted(workload, scheduler):
    """Every FStartBench workload x scheduler, clean and under faults."""
    wl = build_workload(workload, seed=0)
    run_verified(wl, scheduler)
    run_verified(
        wl, scheduler,
        faults=FaultConfig(crash_prob=0.1, straggler_prob=0.2, seed=3),
        per_worker_pools=True,
        worker_concurrency=2,
    )


def test_verify_off_attaches_nothing():
    wl = random_workload(0)
    scheduler = build_scheduler("greedy")
    scheduler.reset()
    sim = ClusterSimulator(SimulationConfig(pool_capacity_mb=1500.0))
    sim.run(wl, scheduler)
    assert sim.verifier is None


# ---------------------------------------------------------------------------
# Negative tests: every monitor fires on seeded corruption
# ---------------------------------------------------------------------------

@pytest.fixture
def finished_sim() -> ClusterSimulator:
    """A completed verified run whose state the tests then corrupt."""
    return run_verified(build_workload("LO-Sim", seed=0), "greedy",
                        pool_capacity_mb=2000.0)


def test_conservation_fires_on_counter_tamper(finished_sim):
    finished_sim.lifecycle.created_count += 1
    with pytest.raises(InvariantViolation, match=r"\[conservation\]"):
        finished_sim.verifier.checkpoint()


def test_conservation_fires_on_live_memory_drift(finished_sim):
    finished_sim.lifecycle.live_memory_mb += 64.0
    with pytest.raises(InvariantViolation, match=r"\[conservation\]"):
        finished_sim.verifier.checkpoint()


def test_capacity_fires_on_memory_book_tamper(finished_sim):
    finished_sim.placement.memory_mb[0] += 123.0
    with pytest.raises(InvariantViolation, match=r"\[capacity\]"):
        finished_sim.verifier.checkpoint()


def test_capacity_fires_on_foreign_hosting(finished_sim):
    # Book a container that never existed.
    finished_sim.placement._placement[999_999] = 0
    with pytest.raises(InvariantViolation, match=r"\[capacity\]"):
        finished_sim.verifier.checkpoint()


def test_pool_index_fires_on_dropped_index_entry(finished_sim):
    pool = finished_sim.pool
    cid = pool.containers()[0].container_id
    del pool.shard_of(cid)._index_keys[cid]
    with pytest.raises(InvariantViolation, match=r"\[pool-index\]"):
        finished_sim.verifier.checkpoint()


def test_pool_index_fires_on_unpruned_bucket(finished_sim):
    finished_sim.pool._shards[0]._idx_l1[999_999] = {}
    with pytest.raises(InvariantViolation, match=r"\[pool-index\]"):
        finished_sim.verifier.checkpoint()


def test_volume_fires_on_lost_mount(finished_sim):
    container = next(
        c for c in finished_sim.lifecycle.live_containers().values()
        if c.mounted_volumes
    )
    container.mounted_volumes.pop()
    with pytest.raises(InvariantViolation, match=r"\[volumes\]"):
        finished_sim.verifier.checkpoint()


def test_clock_fires_on_rewind(finished_sim):
    harness = finished_sim.verifier
    now = finished_sim.loop.now
    with pytest.raises(InvariantViolation, match=r"\[clock\]"):
        harness.observe_loop("advance", now - 10.0)


def test_ttl_fires_on_unexpired_eviction(finished_sim):
    monitor = next(
        m for m in finished_sim.verifier.monitors if isinstance(m, TTLMonitor)
    )
    fresh = next(iter(finished_sim.lifecycle.live_containers().values()))
    fresh.last_used_at = finished_sim.loop.now
    with pytest.raises(InvariantViolation, match=r"\[ttl\]"):
        monitor.on_event(
            "ttl_expired",
            now=finished_sim.loop.now,
            ttl=600.0,
            containers=[fresh],
        )


def test_harness_default_monitor_set():
    harness = VerificationHarness()
    assert tuple(type(m) for m in harness.monitors) == DEFAULT_MONITORS
