"""Function image: a named, three-level package configuration.

A :class:`FunctionImage` is what the paper calls a function *configuration*
``{L1, L2, L3}``.  Both function invocations and warm containers carry one;
Table-I matching compares the two images level-by-level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.packages.package import Package, PackageLevel, PackageSet


@dataclass(frozen=True)
class FunctionImage:
    """An immutable function/container image.

    Parameters
    ----------
    name:
        Image name, e.g. ``"fstart/hello-python"``.
    packages:
        The level-partitioned package set.
    memory_mb:
        Resident memory footprint of a container running this image
        (includes anonymous memory beyond the package sizes).  Used for
        warm-pool capacity accounting.

    The interned per-level fingerprint tuple of :attr:`packages` is cached
    on the instance as :attr:`fingerprints` at construction, and its
    ``(L1, L2)`` prefix as :attr:`l2_key`; the Table-I matcher and the
    warm-pool match index key on them.
    """

    name: str
    packages: PackageSet
    memory_mb: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("image name must be non-empty")
        if self.memory_mb < 0:
            raise ValueError("memory_mb must be >= 0")
        if not self.packages.os_packages:
            raise ValueError(f"image {self.name!r} has no OS-level package")
        self._cache_fingerprints()

    def _cache_fingerprints(self) -> None:
        """Cache the fingerprints and their L2 prefix as plain attributes
        (not properties), so the matcher and the pool index pay a single
        dict lookup per read and never slice a key."""
        fingerprints = self.packages.level_fingerprints
        object.__setattr__(self, "fingerprints", fingerprints)
        object.__setattr__(self, "l2_key", fingerprints[:2])

    def __getstate__(self):
        """Pickle without the cached fingerprints (process-local ids)."""
        state = dict(self.__dict__)
        state.pop("fingerprints", None)
        state.pop("l2_key", None)
        return state

    def __setstate__(self, state) -> None:
        """Restore fields and re-derive fingerprints in this process."""
        for key, value in state.items():
            object.__setattr__(self, key, value)
        self._cache_fingerprints()

    @classmethod
    def from_packages(
        cls, name: str, packages: Iterable[Package], memory_overhead_mb: float = 32.0
    ) -> "FunctionImage":
        """Build an image whose memory footprint is derived from its packages.

        ``memory_mb = memory_overhead_mb + 0.5 * total package size`` -- a
        simple resident-set model: roughly half of a package's on-disk size
        is mapped when the function is warm.
        """
        ps = PackageSet(packages)
        return cls(
            name=name,
            packages=ps,
            memory_mb=memory_overhead_mb + 0.5 * ps.total_size_mb,
        )

    # -- convenience accessors ------------------------------------------------
    def level_set(self, level: PackageLevel) -> FrozenSet[Package]:
        """The (frozen) package set at ``level``."""
        return self.packages.level_set(level)

    @property
    def os_packages(self) -> FrozenSet[Package]:
        return self.packages.os_packages

    @property
    def language_packages(self) -> FrozenSet[Package]:
        return self.packages.language_packages

    @property
    def runtime_packages(self) -> FrozenSet[Package]:
        return self.packages.runtime_packages

    @property
    def total_size_mb(self) -> float:
        return self.packages.total_size_mb

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name} (L1={len(self.os_packages)}, "
            f"L2={len(self.language_packages)}, L3={len(self.runtime_packages)}, "
            f"{self.memory_mb:.0f}MB)"
        )
