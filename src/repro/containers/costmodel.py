"""Startup cost model with per-phase breakdown.

The paper decomposes a function start into phases (Fig. 1): creating and
launching the sandbox, pulling code, installing packages, initializing the
language runtime and initializing the function.  Multi-level reuse skips the
phases below the matched level:

==========  ==================================================================
Match       Phases paid
==========  ==================================================================
NO_MATCH    CREATE + PULL(L1..L3) + INSTALL(L1..L3) + RUNTIME_INIT + FUNC_INIT
L1          CLEAN + PULL(L2,L3) + INSTALL(L2,L3) + RUNTIME_INIT + FUNC_INIT
L2          CLEAN + PULL(L3) + INSTALL(L3) + warm RUNTIME_INIT + FUNC_INIT
L3          CLEAN + warm FUNC_INIT
==========  ==================================================================

Default parameters are calibrated to the paper's measurements on Tencent SCF:
code pulling is 47--89 % of a cold start, runtime initialization is ~6 % for
interpreted languages and up to ~45 % for compiled ones, a full warm start is
up to ~14x faster than a cold start, and cold starts are 1.3--166x the
function execution time.

Breakdowns are pure, so the model memoizes them in one private dict --
the only cache of startup prices -- keyed ``(image.fingerprints, match,
function_init_s)`` for :meth:`~StartupCostModel.breakdown` (read by
:meth:`~StartupCostModel.latency_s` too) and ``(function fingerprints,
container fingerprints, function_init_s)`` for
:meth:`~StartupCostModel.delta_breakdown`.  Errors are never stored.
Fingerprints are process-local, so a model pickles without its memo.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping

from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel
from repro.packages.package import Package, PackageLevel


#: Content-address version of the cost model: bump whenever breakdown math
#: or the default parameters change in a way that alters computed latencies
#: for identical inputs.  Part of every experiment-cache key
#: (:mod:`repro.experiments.cache`); the default parameter values are
#: additionally fingerprinted there, so this only needs a bump for *logic*
#: changes.
COST_MODEL_VERSION = 1


class StartupPhase(enum.Enum):
    """The phases of a function start."""

    CREATE = "create"
    PULL = "pull"
    INSTALL = "install"
    RUNTIME_INIT = "runtime_init"
    FUNCTION_INIT = "function_init"
    CLEAN = "clean"


# Runtime (language) initialization time in seconds.  Interpreted languages
# are cheap; compiled stacks like the JVM are expensive (Section II-A).
_DEFAULT_RUNTIME_INIT_S: Dict[str, float] = {
    "python": 0.15,
    "pip": 0.02,
    "nodejs": 0.20,
    "npm": 0.03,
    "golang": 0.05,   # static binary: negligible runtime bring-up
    "openjdk": 1.80,  # JVM start + class loading
    "maven": 0.05,
    "gcc-toolchain": 0.05,
}


@dataclass(frozen=True)
class CostModelParams:
    """Tunable parameters of the startup cost model.

    Parameters
    ----------
    create_s:
        Time to create and launch a fresh sandbox (container).
    bandwidth_mb_per_s:
        Network bandwidth for pulling package bytes.
    per_package_pull_s:
        Fixed per-package request latency added to the transfer time.
    clean_s:
        Container-cleaner repack time (volume unmount + mount) when reusing
        a warm container.
    runtime_init_s:
        Language-package name -> runtime initialization seconds.
    default_runtime_init_s:
        Fallback for language packages missing from ``runtime_init_s``.
    warm_runtime_factor:
        Fraction of runtime init paid at an L2 match (the interpreter binary
        is present but the process restarts for a different application).
    warm_function_factor:
        Fraction of function init paid at a full (L3) match.
    """

    create_s: float = 0.30
    bandwidth_mb_per_s: float = 200.0
    per_package_pull_s: float = 0.03
    clean_s: float = 0.05
    runtime_init_s: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_RUNTIME_INIT_S)
    )
    default_runtime_init_s: float = 0.25
    warm_runtime_factor: float = 0.25
    warm_function_factor: float = 0.20

    def __post_init__(self) -> None:
        if self.bandwidth_mb_per_s <= 0:
            raise ValueError("bandwidth_mb_per_s must be positive")
        for name, value in (
            ("create_s", self.create_s),
            ("per_package_pull_s", self.per_package_pull_s),
            ("clean_s", self.clean_s),
            ("default_runtime_init_s", self.default_runtime_init_s),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        for name, value in (
            ("warm_runtime_factor", self.warm_runtime_factor),
            ("warm_function_factor", self.warm_function_factor),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class StartupBreakdown:
    """Per-phase startup latency in seconds (the Fig. 1 stacked bars).

    ``total_s`` is summed once, at construction, in the phase order below.
    """

    create_s: float = 0.0
    pull_s: float = 0.0
    install_s: float = 0.0
    runtime_init_s: float = 0.0
    function_init_s: float = 0.0
    clean_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_s", (
            self.create_s
            + self.pull_s
            + self.install_s
            + self.runtime_init_s
            + self.function_init_s
            + self.clean_s
        ))

    def as_dict(self) -> Dict[StartupPhase, float]:
        """Per-phase seconds keyed by StartupPhase."""
        return {
            StartupPhase.CREATE: self.create_s,
            StartupPhase.PULL: self.pull_s,
            StartupPhase.INSTALL: self.install_s,
            StartupPhase.RUNTIME_INIT: self.runtime_init_s,
            StartupPhase.FUNCTION_INIT: self.function_init_s,
            StartupPhase.CLEAN: self.clean_s,
        }


class StartupCostModel:
    """Compute (and memoize) startup latencies for every Table-I match level."""

    def __init__(self, params: CostModelParams | None = None) -> None:
        self.params = params or CostModelParams()
        self._memo: Dict[tuple, StartupBreakdown] = {}

    def __reduce__(self):
        """Pickle without the memo: its fingerprint keys are process-local."""
        return type(self), (self.params,)

    # -- phase helpers -------------------------------------------------------
    def pull_time_s(self, packages: FrozenSet[Package]) -> float:
        """Network transfer plus per-package request latency.

        Package sets iterate in hash-randomized order, so all phase sums
        use ``math.fsum`` (exactly rounded, hence order-independent) to
        keep latencies bit-reproducible across processes -- golden traces
        depend on this.
        """
        size = math.fsum(p.size_mb for p in packages)
        return size / self.params.bandwidth_mb_per_s + (
            self.params.per_package_pull_s * len(packages)
        )

    @staticmethod
    def install_time_s(packages: FrozenSet[Package]) -> float:
        """Total extra install time of ``packages`` (order-independent)."""
        return math.fsum(p.install_cost_s for p in packages)

    def runtime_init_time_s(self, image: FunctionImage) -> float:
        """Sum of language-runtime init times for the image's L2 packages."""
        return math.fsum(
            self.params.runtime_init_s.get(p.name, self.params.default_runtime_init_s)
            for p in image.language_packages
        )

    # -- main entry point ------------------------------------------------------
    def breakdown(
        self,
        image: FunctionImage,
        match: MatchLevel,
        function_init_s: float,
    ) -> StartupBreakdown:
        """Startup breakdown for starting ``image`` at the given match level.

        ``function_init_s`` is the function's own initialization time (code
        import, model load, ...), supplied by the function spec.  An int
        ``match`` hits the same memo entry as its ``MatchLevel``.
        """
        key = (image.fingerprints, match, function_init_s)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._price(
                image, MatchLevel(match), function_init_s
            )
        return cached

    def _price(
        self, image: FunctionImage, match: MatchLevel, function_init_s: float
    ) -> StartupBreakdown:
        """Compute :meth:`breakdown` (no memo)."""
        if function_init_s < 0:
            raise ValueError("function_init_s must be >= 0")
        p = self.params
        if match is MatchLevel.NO_MATCH:
            levels = (PackageLevel.OS, PackageLevel.LANGUAGE, PackageLevel.RUNTIME)
            pkgs = frozenset().union(*(image.level_set(lv) for lv in levels))
            return StartupBreakdown(
                create_s=p.create_s,
                pull_s=self.pull_time_s(pkgs),
                install_s=self.install_time_s(pkgs),
                runtime_init_s=self.runtime_init_time_s(image),
                function_init_s=function_init_s,
            )
        if match is MatchLevel.L1:
            pkgs = image.language_packages | image.runtime_packages
            return StartupBreakdown(
                clean_s=p.clean_s,
                pull_s=self.pull_time_s(pkgs),
                install_s=self.install_time_s(pkgs),
                runtime_init_s=self.runtime_init_time_s(image),
                function_init_s=function_init_s,
            )
        if match is MatchLevel.L2:
            pkgs = image.runtime_packages
            return StartupBreakdown(
                clean_s=p.clean_s,
                pull_s=self.pull_time_s(pkgs),
                install_s=self.install_time_s(pkgs),
                runtime_init_s=p.warm_runtime_factor * self.runtime_init_time_s(image),
                function_init_s=function_init_s,
            )
        # Full match: only repacking and a warm function init remain.
        return StartupBreakdown(
            clean_s=p.clean_s,
            function_init_s=p.warm_function_factor * function_init_s,
        )

    def latency_s(
        self, image: FunctionImage, match: MatchLevel, function_init_s: float
    ) -> float:
        """``breakdown(...).total_s``, read straight off the memo (the
        per-arrival call on the hot paths)."""
        cached = self._memo.get((image.fingerprints, match, function_init_s))
        if cached is None:
            cached = self.breakdown(image, match, function_init_s)
        return cached.total_s

    # -- W-style delta costing (Fig. 1's "pull missing packages") -------------
    def delta_breakdown(
        self,
        function_image: FunctionImage,
        container_image: FunctionImage,
        function_init_s: float,
    ) -> StartupBreakdown:
        """Startup cost reusing ``container_image`` with per-package deltas.

        This is the paper's "W" reuse mode from Fig. 1: adopt the warm
        container and pull/install only the *missing* packages, regardless
        of whole-level equality.  Requires an OS-level match (the writable
        layer cannot be swapped); raises ``ValueError`` otherwise.

        Compared to :meth:`breakdown`, which prices the three Table-I match
        levels, this prices arbitrary package overlap -- the cost model
        behind level-free sharing baselines.
        """
        key = (function_image.fingerprints, container_image.fingerprints,
               function_init_s)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._price_delta(
                function_image, container_image, function_init_s
            )
        return cached

    def _price_delta(
        self,
        function_image: FunctionImage,
        container_image: FunctionImage,
        function_init_s: float,
    ) -> StartupBreakdown:
        """Compute :meth:`delta_breakdown` (no memo)."""
        if function_init_s < 0:
            raise ValueError("function_init_s must be >= 0")
        if function_image.os_packages != container_image.os_packages:
            raise ValueError("delta reuse requires an OS-level match")
        p = self.params
        missing = frozenset(
            (function_image.language_packages | function_image.runtime_packages)
            - (container_image.language_packages
               | container_image.runtime_packages)
        )
        lang_ready = (
            function_image.language_packages <= container_image.language_packages
        )
        runtime_init = self.runtime_init_time_s(function_image)
        if lang_ready:
            runtime_init *= p.warm_runtime_factor
        fully_warm = not missing and lang_ready
        init = function_init_s * (p.warm_function_factor if fully_warm else 1.0)
        return StartupBreakdown(
            clean_s=p.clean_s,
            pull_s=self.pull_time_s(missing) if missing else 0.0,
            install_s=self.install_time_s(missing),
            runtime_init_s=0.0 if fully_warm else runtime_init,
            function_init_s=init,
        )
