"""Zygote-container baseline (Li et al., USENIX ATC'22 -- related work).

"Help Rather Than Recycle" proposes *zygote* containers that hold the
package union of several functions; a function can warm-start on a zygote
that contains **all** of its packages, and the zygote is preserved (not
repacked) so it keeps serving the whole family.

This module provides:

* :func:`build_zygote_images` -- derive one zygote image per
  (OS, language) family from a set of function specs, with the union of
  that family's runtime packages;
* :class:`ZygoteScheduler` -- reuse the smallest covering same-OS
  container (``preserve_image=True``), fall back to exact-match reuse,
  else cold start.

Run it with ``SimulationConfig(delta_pricing=True)`` and a pre-warmed
zygote pool (``ClusterSimulator.prewarm``); the extension benchmark
``benchmarks/bench_ext_zygote.py`` does exactly that.

Compared to MLCR (the paper's Section VII discussion): zygotes need every
package present to help, pay memory for the union permanently, and require
choosing the families up front, whereas MLCR reuses *partial* matches and
adapts online.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.containers.costmodel import StartupCostModel
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.schedulers.base import COLD, PoolDecision, Scheduler
from repro.workloads.functions import FunctionSpec
from repro.workloads.workload import Invocation

#: Covering-test memo: (function fingerprints, container fingerprints) ->
#: whether the container's package set covers the function's.  Interned
#: fingerprints are equal iff the package sets are, so the key fully
#: determines the answer; the table is process-wide like the intern
#: tables themselves.
_COVERS: Dict[Tuple[tuple, tuple], bool] = {}


def build_zygote_images(
    specs: Iterable[FunctionSpec], memory_overhead_mb: float = 48.0
) -> List[FunctionImage]:
    """One zygote per (OS-level, language-level) family: runtime union."""
    families: Dict[Tuple, List[FunctionSpec]] = {}
    for spec in specs:
        key = (spec.image.os_packages, spec.image.language_packages)
        families.setdefault(key, []).append(spec)
    zygotes: List[FunctionImage] = []
    for i, ((os_pkgs, lang_pkgs), members) in enumerate(
        sorted(families.items(), key=lambda kv: kv[1][0].name)
    ):
        runtime_union = frozenset().union(
            *(m.image.runtime_packages for m in members)
        )
        packages = list(os_pkgs | lang_pkgs | runtime_union)
        zygotes.append(
            FunctionImage.from_packages(
                f"zygote/family-{i:02d}", packages,
                memory_overhead_mb=memory_overhead_mb,
            )
        )
    return zygotes


class ZygoteScheduler(Scheduler):
    """Warm-start on covering (superset) containers, preserved in place."""

    name = "Zygote"

    def decide_pool(
        self, pool, invocation: Invocation, cost_model: StartupCostModel
    ) -> PoolDecision:
        """Smallest covering same-OS container (preserved in place), else
        the MRU exact match, else cold.

        Same-OS containers are exactly the L1 index bucket; the exact
        match (equal fingerprints) is not a covering zygote.  The
        smallest-``(memory_mb, container_id)`` pick is order-free, so
        bucket order is irrelevant.
        """
        image = invocation.spec.image
        candidates = pool.match_candidates(image, MatchLevel.L1)
        if not candidates:
            return COLD
        fps = image.fingerprints
        best = None
        best_key = None
        for c in candidates:
            c_fps = c.image.fingerprints
            if c_fps == fps:
                continue
            pair = (fps, c_fps)
            covers = _COVERS.get(pair)
            if covers is None:
                covers = _COVERS[pair] = (
                    frozenset(image.packages) <= frozenset(c.image.packages)
                )
            if not covers:
                continue
            key = (c.memory_mb, c.container_id)
            if best_key is None or key < best_key:
                best_key = key
                best = c
        if best is not None:
            return best, int(match_level(image, best.image)), True, ()
        exact = pool.best_exact(image)
        if exact is None:
            return COLD
        return exact, 3, False, ()
