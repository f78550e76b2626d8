"""Core package value types.

A :class:`Package` is an immutable description of a software package that can
be installed inside a container: its name, version, level (OS / language /
runtime) and size.  Sizes drive both pull time (network transfer) and memory
accounting in the warm pool, so they are first-class here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Tuple


class PackageLevel(enum.IntEnum):
    """The three package levels of multi-level container reuse.

    The integer values are ordered by depth: reusing a container at a deeper
    level skips more startup work.  ``OS`` is the shallowest (only the sandbox
    and base image are shared) and ``RUNTIME`` the deepest (a full match).
    """

    OS = 1
    LANGUAGE = 2
    RUNTIME = 3

    @property
    def label(self) -> str:
        """Human-readable label used in reports (``L1`` / ``L2`` / ``L3``)."""
        return f"L{int(self)}"


@dataclass(frozen=True, order=True)
class Package:
    """An immutable software package.

    Parameters
    ----------
    name:
        Canonical package name, e.g. ``"ubuntu"`` or ``"numpy"``.
    version:
        Version string.  Two packages with the same name but different
        versions are *different* packages and never match.
    level:
        Which of the three reuse levels the package belongs to.
    size_mb:
        On-disk size in megabytes.  Drives pull time and memory accounting.
    install_cost_s:
        Extra installation time (seconds) beyond the network transfer, e.g.
        compilation or post-install scripts.
    """

    name: str
    version: str
    level: PackageLevel = field(compare=False)
    size_mb: float = field(compare=False)
    install_cost_s: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("package name must be non-empty")
        if self.size_mb < 0:
            raise ValueError(f"package {self.name}: size_mb must be >= 0")
        if self.install_cost_s < 0:
            raise ValueError(f"package {self.name}: install_cost_s must be >= 0")

    @property
    def key(self) -> str:
        """Unique identity string (``name==version``)."""
        return f"{self.name}=={self.version}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.key} [{self.level.label}, {self.size_mb:.0f}MB]"


#: Process-wide intern table mapping a level's frozen package set to a small
#: integer *fingerprint*.  Two level sets are equal **iff** they intern to the
#: same integer, so Table-I whole-level equality becomes an int comparison
#: (no hash-collision caveat: interning is keyed on set equality itself).
_LEVEL_INTERN: Dict[FrozenSet[Package], int] = {}

#: Intern table for whole fingerprint tuples: equal-configuration package
#: sets share the *same tuple object*, so a full (L3) Table-I match is a
#: pointer-identity check.
_TUPLE_INTERN: Dict[Tuple[int, int, int], Tuple[int, int, int]] = {}


def _intern_level(level_set: FrozenSet[Package]) -> int:
    """Intern ``level_set`` and return its process-wide fingerprint."""
    # dict.setdefault is atomic under the GIL; concurrent first-interns of
    # the same set both receive the winning id (gaps in the id space are
    # harmless -- only equality of fingerprints matters).
    return _LEVEL_INTERN.setdefault(level_set, len(_LEVEL_INTERN))


class PackageSet:
    """An immutable set of packages partitioned by level.

    This is the representation the paper calls ``{L1, L2, L3}`` -- three
    lists, one per level.  Equality of a level between a function and a
    container is *whole-level* equality (Table I), which this class exposes
    via :meth:`level_set`.

    Each level set is interned at construction into a process-wide table,
    yielding the :attr:`level_fingerprints` tuple ``(fp(L1), fp(L2),
    fp(L3))``; the Table-I matcher compares those integers instead of the
    frozensets themselves.
    """

    __slots__ = ("_by_level", "_all", "_hash", "_fingerprints")

    def __init__(self, packages: Iterable[Package] = ()) -> None:
        by_level: dict[PackageLevel, set[Package]] = {
            PackageLevel.OS: set(),
            PackageLevel.LANGUAGE: set(),
            PackageLevel.RUNTIME: set(),
        }
        for pkg in packages:
            by_level[pkg.level].add(pkg)
        self._by_level: dict[PackageLevel, FrozenSet[Package]] = {
            lvl: frozenset(s) for lvl, s in by_level.items()
        }
        self._all: FrozenSet[Package] = frozenset().union(*self._by_level.values())
        self._hash = hash(self._all)
        fingerprints = tuple(
            _intern_level(self._by_level[lvl]) for lvl in PackageLevel
        )
        self._fingerprints: Tuple[int, int, int] = _TUPLE_INTERN.setdefault(
            fingerprints, fingerprints
        )

    # -- set protocol -----------------------------------------------------
    def __iter__(self) -> Iterator[Package]:
        return iter(self._all)

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, pkg: object) -> bool:
        return pkg in self._all

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackageSet):
            return NotImplemented
        return self._all == other._all

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{lvl.label}={sorted(p.key for p in self._by_level[lvl])}"
            for lvl in PackageLevel
        )
        return f"PackageSet({parts})"

    def __reduce__(self):
        """Pickle as the package list so fingerprints re-intern on load.

        Fingerprints are only meaningful within one process's intern table;
        reconstructing from packages keeps unpickled sets (e.g. in
        ``multiprocessing`` workers) consistent with locally built ones.
        """
        return (PackageSet, (list(self._all),))

    # -- fingerprints -------------------------------------------------------
    @property
    def level_fingerprints(self) -> Tuple[int, int, int]:
        """Interned per-level fingerprints ``(fp(L1), fp(L2), fp(L3))``.

        Within one process, ``a.level_fingerprints[i] ==
        b.level_fingerprints[i]`` holds exactly when the two sets' level
        ``i+1`` package sets are equal -- the O(1) form of Table-I
        whole-level equality.  The tuple itself is interned too: equal
        configurations return the *same object*, so ``a.level_fingerprints
        is b.level_fingerprints`` tests full (L3) equality.
        """
        return self._fingerprints

    # -- level access ------------------------------------------------------
    def level_set(self, level: PackageLevel) -> FrozenSet[Package]:
        """Return the (frozen) set of packages at ``level``."""
        return self._by_level[level]

    @property
    def os_packages(self) -> FrozenSet[Package]:
        return self._by_level[PackageLevel.OS]

    @property
    def language_packages(self) -> FrozenSet[Package]:
        return self._by_level[PackageLevel.LANGUAGE]

    @property
    def runtime_packages(self) -> FrozenSet[Package]:
        return self._by_level[PackageLevel.RUNTIME]

    # -- aggregates ---------------------------------------------------------
    @property
    def total_size_mb(self) -> float:
        """Total on-disk size of all packages.

        ``math.fsum`` keeps the result independent of the frozenset's
        hash-randomized iteration order (exactly-rounded summation), so
        sizes -- and everything derived from them -- are reproducible
        across processes.
        """
        return math.fsum(p.size_mb for p in self._all)

    def level_size_mb(self, level: PackageLevel) -> float:
        """Total on-disk size of the packages at ``level``."""
        return math.fsum(p.size_mb for p in self._by_level[level])

    # -- construction helpers ------------------------------------------------
    def union(self, other: "PackageSet") -> "PackageSet":
        """Return a new set containing packages from both sets."""
        return PackageSet(list(self._all) + list(other._all))

    def names(self) -> FrozenSet[str]:
        """The set of package *keys* (name==version), used for Jaccard."""
        return frozenset(p.key for p in self._all)
