"""Content-addressed experiment cache: skip re-simulating unchanged cells.

Every grid cell, pool sizing and ``runall`` section is a pure function of
its inputs (the simulator is deterministic by construction).  This module
keys each such result by a SHA-256 digest over a canonical JSON payload of
everything the result depends on:

* the task fields themselves (scheduler, workload, seed, pool, capacity);
* the :class:`~repro.cluster.simulator.SimulationConfig` fingerprint,
  including the cost-model parameter values;
* the content-address versions --
  :data:`~repro.workloads.fstartbench.WORKLOAD_GENERATOR_VERSION`,
  :data:`~repro.containers.costmodel.COST_MODEL_VERSION`, this module's
  :data:`ENGINE_VERSION` and :data:`CACHE_FORMAT_VERSION`.

Results persist as compact columnar summaries (a keys column plus a values
column, floats serialized with shortest-round-trip ``repr`` so the cache
round-trip is bit-exact) under ``.repro_cache/``:

* ``cells/<digest>.json`` -- one grid cell's ``(method, summary)``;
* ``pools/<digest>.json`` -- Tight/Moderate/Loose capacities per workload;
* ``sections/<digest>.md`` -- one ``runall`` section's report body.

Invalidation is by construction: changing a config knob, a seed, or any of
the version constants changes the digest, so stale entries are simply never
addressed again (``prune()`` removes them).  The ``cached_vs_fresh``
differential oracle and the hypothesis parity suite hold cache hits to
byte-identical reports; ``REPRO_CACHE=off`` (or ``--no-cache``) disables
the cache and ``REPRO_CACHE_DIR`` relocates it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, TYPE_CHECKING

from repro.cluster.simulator import SimulationConfig
from repro.containers.costmodel import COST_MODEL_VERSION
from repro.workloads.fstartbench import WORKLOAD_GENERATOR_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.parallel import GridCell, GridTask

#: On-disk cache layout version; bump on any change to the stored file
#: schema (every older entry becomes unaddressable).
CACHE_FORMAT_VERSION = 1

#: Umbrella version of the simulation engine's *behaviour*: bump whenever
#: scheduler, simulator, eviction or DRL changes alter any deterministic
#: run outcome that is not captured by the fingerprinted configs.  The
#: golden traces catch the same drift at verification time; this constant
#: is how a behaviour change declares itself to the cache.
ENGINE_VERSION = 1


def _json_safe(value):
    """Make ``value`` canonically JSON-serializable (handles inf/nan)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def digest_payload(payload: Dict) -> str:
    """SHA-256 hex digest of a canonical (sorted-keys) JSON payload."""
    canonical = json.dumps(_json_safe(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_fingerprint(config: SimulationConfig) -> Dict:
    """Primitive-field fingerprint of a simulation configuration.

    Captures every knob that changes run outcomes: capacity, worker
    topology, pricing mode, fault probabilities and the full cost-model
    parameter set.  ``verify`` and ``trace`` are observation-only and
    deliberately excluded -- they must not fork the cache address space.
    """
    params = config.cost_model.params
    return {
        "pool_capacity_mb": config.pool_capacity_mb,
        "n_workers": config.n_workers,
        "delta_pricing": config.delta_pricing,
        "per_worker_pools": config.per_worker_pools,
        "worker_concurrency": config.worker_concurrency,
        "worker_capacity_mb": config.worker_capacity_mb,
        "faults": {
            "crash_prob": config.faults.crash_prob,
            "straggler_prob": config.faults.straggler_prob,
            "straggler_factor": config.faults.straggler_factor,
            "seed": config.faults.seed,
        },
        "cost_model": {
            "create_s": params.create_s,
            "bandwidth_mb_per_s": params.bandwidth_mb_per_s,
            "per_package_pull_s": params.per_package_pull_s,
            "clean_s": params.clean_s,
            "runtime_init_s": dict(params.runtime_init_s),
            "default_runtime_init_s": params.default_runtime_init_s,
            "warm_runtime_factor": params.warm_runtime_factor,
            "warm_function_factor": params.warm_function_factor,
        },
    }


def version_stamp() -> Dict[str, int]:
    """The version constants baked into every cache key."""
    return {
        "cache_format": CACHE_FORMAT_VERSION,
        "engine": ENGINE_VERSION,
        "workload_gen": WORKLOAD_GENERATOR_VERSION,
        "cost_model": COST_MODEL_VERSION,
    }


def default_cache_root() -> Path:
    """Cache directory: ``$REPRO_CACHE_DIR`` or ``.repro_cache/``."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def cache_enabled_by_env() -> bool:
    """Whether the environment permits caching (``REPRO_CACHE`` != off)."""
    return os.environ.get("REPRO_CACHE", "").lower() not in ("off", "0")


@dataclass
class ExperimentCache:
    """Content-addressed store for cells, pool sizings and section texts.

    ``enabled=None`` defers to :func:`cache_enabled_by_env`; a disabled
    cache answers every lookup with a miss and stores nothing, so callers
    thread one object through unconditionally.  ``hits`` / ``misses``
    count cell, pool and section lookups alike.
    """

    root: Optional[Path] = None
    enabled: Optional[bool] = None
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.enabled is None:
            self.enabled = cache_enabled_by_env()
        self.root = Path(self.root) if self.root is not None \
            else default_cache_root()

    # -- plumbing -----------------------------------------------------------
    def _read(self, bucket: str, key: str, suffix: str) -> Optional[str]:
        if not self.enabled:
            return None
        path = self.root / bucket / f"{key}{suffix}"
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return text

    def _write(self, bucket: str, key: str, suffix: str, text: str) -> None:
        if not self.enabled:
            return
        directory = self.root / bucket
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{key}{suffix}"
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(path)

    # -- grid cells ---------------------------------------------------------
    def cell_key(self, task: "GridTask") -> str:
        """Content address of one grid task.

        The payload enumerates the result-determining fields explicitly.
        """
        payload = {
            "kind": "grid_cell",
            "versions": version_stamp(),
            "scheduler": task.scheduler,
            "workload": task.workload,
            "seed": task.seed,
            "pool_label": task.pool_label,
            "capacity_mb": task.capacity_mb,
            "sim_config": config_fingerprint(
                SimulationConfig(pool_capacity_mb=task.capacity_mb)
            ),
        }
        return digest_payload(payload)

    def get_cell(self, task: "GridTask") -> Optional["GridCell"]:
        """Cached outcome of ``task``, or ``None`` (miss / disabled /
        corrupt entry)."""
        from repro.experiments.parallel import GridCell

        text = self._read("cells", self.cell_key(task), ".json")
        if text is None:
            return None
        try:
            data = json.loads(text)
            method = data["method"]
            summary = dict(zip(data["keys"],
                               array("d", data["values"])))
            if len(summary) != len(data["keys"]):
                raise ValueError("duplicate summary keys")
        except (ValueError, KeyError, TypeError):
            # Corrupt or truncated entry: treat as a miss (it will be
            # rewritten after the fresh run).
            self.hits -= 1
            self.misses += 1
            return None
        return GridCell(task=task, method=method, summary=summary)

    def put_cell(self, cell: "GridCell") -> None:
        """Persist one cell as a columnar ``(keys, values)`` summary."""
        data = {
            "version": CACHE_FORMAT_VERSION,
            "task": {
                "scheduler": cell.task.scheduler,
                "workload": cell.task.workload,
                "seed": cell.task.seed,
                "pool_label": cell.task.pool_label,
                "capacity_mb": cell.task.capacity_mb,
            },
            "method": cell.method,
            "keys": list(cell.summary.keys()),
            "values": [float(v) for v in cell.summary.values()],
        }
        self._write("cells", self.cell_key(cell.task), ".json",
                    json.dumps(data))

    # -- pool sizings -------------------------------------------------------
    def pool_key(self, workload: str, seed: int) -> str:
        """Content address of one workload's Tight/Moderate/Loose sizing."""
        payload = {
            "kind": "pool_sizes",
            "versions": version_stamp(),
            "workload": workload,
            "seed": seed,
        }
        return digest_payload(payload)

    def get_pool_sizes(self, workload: str,
                       seed: int) -> Optional[Dict[str, float]]:
        """Cached capacity map for ``workload``/``seed``, or ``None``."""
        text = self._read("pools", self.pool_key(workload, seed), ".json")
        if text is None:
            return None
        try:
            data = json.loads(text)
            return dict(zip(data["labels"], array("d", data["values"])))
        except (ValueError, KeyError, TypeError):
            self.hits -= 1
            self.misses += 1
            return None

    def put_pool_sizes(self, workload: str, seed: int,
                       sizes: Dict[str, float]) -> None:
        """Persist one workload's capacity map."""
        data = {
            "version": CACHE_FORMAT_VERSION,
            "labels": list(sizes.keys()),
            "values": [float(v) for v in sizes.values()],
        }
        self._write("pools", self.pool_key(workload, seed), ".json",
                    json.dumps(data))

    # -- report sections ----------------------------------------------------
    def section_key(self, name: str, scale_fields: Dict) -> str:
        """Content address of one ``runall`` section's report body."""
        payload = {
            "kind": "runall_section",
            "versions": version_stamp(),
            "section": name,
            "scale": scale_fields,
        }
        return digest_payload(payload)

    def get_section(self, name: str, scale_fields: Dict) -> Optional[str]:
        """Cached report body for a section, or ``None``."""
        return self._read("sections", self.section_key(name, scale_fields),
                          ".md")

    def put_section(self, name: str, scale_fields: Dict, body: str) -> None:
        """Persist one section's report body."""
        self._write("sections", self.section_key(name, scale_fields),
                    ".md", body)

    # -- maintenance --------------------------------------------------------
    def prune(self) -> int:
        """Delete every stored entry; returns the number removed.

        Content addressing never *reuses* stale entries -- they just stop
        being addressed -- so pruning is purely a disk-space operation.
        """
        removed = 0
        if self.root is None or not self.root.exists():
            return removed
        for bucket in ("cells", "pools", "sections"):
            directory = self.root / bucket
            if not directory.exists():
                continue
            for path in directory.iterdir():
                if path.is_file():
                    path.unlink()
                    removed += 1
        return removed


def pool_sizes_cached(workload_name: str, seed: int,
                      cache: Optional[ExperimentCache]) -> Dict[str, float]:
    """Tight/Moderate/Loose capacities, via the cache when available.

    A miss measures :func:`repro.experiments.common.pool_sizes` with an
    unbounded reference run (one full simulation) and stores the result;
    a hit skips the reference run entirely.  Round-trip is bit-exact, so
    downstream grids are byte-identical with the cache on or off.
    """
    from repro.experiments.common import pool_sizes
    from repro.experiments.parallel import cached_workload

    if cache is not None:
        cached = cache.get_pool_sizes(workload_name, seed)
        if cached is not None:
            return cached
    sizes = pool_sizes(cached_workload(workload_name, seed))
    if cache is not None:
        cache.put_pool_sizes(workload_name, seed, sizes)
    return sizes
