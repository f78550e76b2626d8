"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np
import pytest

from repro.containers.container import Container, ContainerState
from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.packages.catalog import default_catalog, language_group, os_group
from repro.packages.package import Package, PackageLevel
from repro.cluster.pool import PoolSet
from repro.schedulers.base import SchedulingContext
from repro.workloads.functions import FunctionSpec, function_by_id
from repro.workloads.workload import Invocation


@pytest.fixture(autouse=True)
def _isolated_experiment_cache(tmp_path, monkeypatch):
    """Point the content-addressed experiment cache at a per-test tmp dir.

    Keeps CLI/experiment tests from writing ``.repro_cache/`` into the
    repo and from serving each other stale state across runs (explicit
    ``ExperimentCache(root=...)`` construction in tests is unaffected).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def cost_model():
    return StartupCostModel()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Builders (plain functions so tests can parameterize freely)
# ---------------------------------------------------------------------------

def make_package(
    name: str = "pkg",
    version: str = "1.0",
    level: PackageLevel = PackageLevel.RUNTIME,
    size_mb: float = 10.0,
    install_cost_s: float = 0.1,
) -> Package:
    return Package(name, version, level, size_mb, install_cost_s)


def make_image(
    name: str = "img",
    os_name: str = "alpine",
    lang_name: str = "python",
    runtime_names: Sequence[str] = ("flask",),
    catalog=None,
) -> FunctionImage:
    cat = catalog or default_catalog()
    packages: List[Package] = []
    packages += os_group(cat, os_name)
    packages += language_group(cat, lang_name)
    runtime_versions = {
        "flask": "2.3", "numpy": "1.24", "pandas": "2.0",
        "matplotlib": "3.7", "tensorflow": "2.12", "express": "4.18",
        "springboot": "2.7", "gin": "1.9", "libcos-sdk": "5.9",
    }
    for rt in runtime_names:
        packages.append(cat.get(rt, runtime_versions[rt]))
    return FunctionImage.from_packages(name, packages)


def make_container(
    container_id: int,
    image: Optional[FunctionImage] = None,
    state: ContainerState = ContainerState.IDLE,
    last_used_at: float = 0.0,
) -> Container:
    return Container(
        container_id=container_id,
        image=image or make_image(),
        state=state,
        last_used_at=last_used_at,
    )


def make_spec(
    func_id: int = 999,
    name: str = "test-func",
    image: Optional[FunctionImage] = None,
    function_init_s: float = 0.1,
    exec_time_mean_s: float = 0.5,
) -> FunctionSpec:
    return FunctionSpec(
        func_id=func_id,
        name=name,
        image=image or make_image(),
        function_init_s=function_init_s,
        exec_time_mean_s=exec_time_mean_s,
        exec_time_cv=0.0,
    )


def make_invocation(
    spec: Optional[FunctionSpec] = None,
    invocation_id: int = 0,
    arrival_time: float = 0.0,
    execution_time_s: float = 0.5,
) -> Invocation:
    return Invocation(
        invocation_id=invocation_id,
        spec=spec or make_spec(),
        arrival_time=arrival_time,
        execution_time_s=execution_time_s,
    )


def make_ctx(
    invocation: Optional[Invocation] = None,
    idle_containers: Iterable[Container] = (),
    now: float = 0.0,
    capacity_mb: float = 4096.0,
    used_mb: float = 0.0,
    cost_model: Optional[StartupCostModel] = None,
    worker_loads: Sequence[int] = (),
    queue_depths: Sequence[int] = (),
) -> SchedulingContext:
    """A context whose unbounded one-shard pool holds ``idle_containers``."""
    idle = tuple(idle_containers)
    pool = PoolSet(float("inf"))
    for container in idle:
        pool.add(container, shard_index=0)
    return SchedulingContext(
        now=now,
        invocation=invocation or make_invocation(),
        idle_containers=idle,
        cost_model=cost_model or StartupCostModel(),
        pool_capacity_mb=capacity_mb,
        pool_used_mb=used_mb,
        pool=pool,
        worker_loads=tuple(worker_loads),
        queue_depths=tuple(queue_depths),
    )


def fstart_spec(func_id: int) -> FunctionSpec:
    """Shortcut to a Table-II function."""
    return function_by_id(func_id)
