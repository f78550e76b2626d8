"""Catalog of realistic package profiles.

FStartBench's 13 functions (Table II) are built from a small set of popular
OS / language / runtime packages.  This module defines those packages with
sizes and install costs chosen to be consistent with the paper's reported
ratios:

* code pulling dominates cold start (47--89 % of total startup latency),
* runtime initialization is cheap for interpreted languages (~6 %) and
  expensive for compiled ones (~45 %),
* function memory footprints vary over roughly a 4x range.

The catalog is deterministic -- no randomness -- so FStartBench workloads are
reproducible byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.packages.package import Package, PackageLevel


class PackageCatalog:
    """A registry of known packages keyed by ``name==version``.

    The catalog enforces uniqueness of keys so the rest of the system can
    treat package identity as a plain string comparison.
    """

    def __init__(self, packages: Iterable[Package] = ()) -> None:
        self._packages: Dict[str, Package] = {}
        for pkg in packages:
            self.add(pkg)

    def add(self, pkg: Package) -> None:
        """Register ``pkg``; raises ``ValueError`` on a conflicting key.

        A conflict is the same ``name==version`` key with different metadata
        (level, size or install cost); re-adding an identical package is
        idempotent.
        """
        existing = self._packages.get(pkg.key)
        if existing is not None and (
            existing.level is not pkg.level
            or existing.size_mb != pkg.size_mb
            or existing.install_cost_s != pkg.install_cost_s
        ):
            raise ValueError(f"conflicting package registration for {pkg.key}")
        self._packages[pkg.key] = pkg

    def get(self, name: str, version: str) -> Package:
        """Look up a package; raises ``KeyError`` if unknown."""
        return self._packages[f"{name}=={version}"]

    def by_key(self, key: str) -> Package:
        """Look up a package by its ``name==version`` key."""
        return self._packages[key]

    def __contains__(self, key: str) -> bool:
        return key in self._packages

    def __len__(self) -> int:
        return len(self._packages)

    def at_level(self, level: PackageLevel) -> List[Package]:
        """All packages of a given level, sorted."""
        return sorted(p for p in self._packages.values() if p.level == level)

    def key_order(self) -> List[str]:
        """Deterministic ordering of all keys (for state encoding)."""
        return sorted(self._packages)


# ---------------------------------------------------------------------------
# Default catalog used by FStartBench.
#
# Sizes (MB) are representative of the real artifacts: Alpine ~8MB,
# Debian ~120MB, CentOS ~230MB; JDK ~190MB; Python ~50MB; Node ~160MB;
# Go toolchain ~350MB; Tensorflow ~500MB etc.  Install costs model
# compile/extract overheads (large for compiled stacks like the JDK).
# ---------------------------------------------------------------------------

_OS = PackageLevel.OS
_LANG = PackageLevel.LANGUAGE
_RT = PackageLevel.RUNTIME

_DEFAULT_PACKAGES: List[Package] = [
    # --- OS bases and shared OS sub-packages (L1) ---
    # Real base images share sub-packages (glibc, coreutils, certificates),
    # which is what gives the paper's workloads non-trivial Jaccard
    # similarity even across different OS bases.
    Package("alpine-base", "3.18", _OS, size_mb=3.0, install_cost_s=0.02),
    Package("debian-base", "11", _OS, size_mb=60.0, install_cost_s=0.20),
    Package("centos-base", "7", _OS, size_mb=170.0, install_cost_s=0.30),
    Package("ubuntu-base", "20.04", _OS, size_mb=45.0, install_cost_s=0.15),
    Package("busybox-base", "1.36", _OS, size_mb=2.0, install_cost_s=0.01),
    Package("musl", "1.2", _OS, size_mb=4.0, install_cost_s=0.02),
    Package("glibc", "2.31", _OS, size_mb=40.0, install_cost_s=0.08),
    Package("coreutils", "8.32", _OS, size_mb=18.0, install_cost_s=0.04),
    Package("ca-certificates", "2023", _OS, size_mb=1.0, install_cost_s=0.01),
    # --- language stacks and shared tooling (L2) ---
    Package("openjdk", "11", _LANG, size_mb=180.0, install_cost_s=1.0),
    Package("maven", "3.8", _LANG, size_mb=10.0, install_cost_s=0.2),
    Package("nodejs", "18", _LANG, size_mb=150.0, install_cost_s=0.5),
    Package("npm", "9", _LANG, size_mb=10.0, install_cost_s=0.1),
    Package("golang", "1.20", _LANG, size_mb=350.0, install_cost_s=1.0),
    Package("python", "3.9.17", _LANG, size_mb=45.0, install_cost_s=0.4),
    Package("pip", "23", _LANG, size_mb=5.0, install_cost_s=0.1),
    Package("gcc-toolchain", "9", _LANG, size_mb=280.0, install_cost_s=1.5),
    # --- runtime libraries (L3) ---
    Package("springboot", "2.7", _RT, size_mb=35.0, install_cost_s=0.8),
    Package("express", "4.18", _RT, size_mb=2.0, install_cost_s=0.10),
    Package("gin", "1.9", _RT, size_mb=12.0, install_cost_s=0.2),
    Package("flask", "2.3", _RT, size_mb=3.0, install_cost_s=0.08),
    Package("numpy", "1.24", _RT, size_mb=28.0, install_cost_s=0.25),
    Package("pandas", "2.0", _RT, size_mb=60.0, install_cost_s=0.35),
    Package("matplotlib", "3.7", _RT, size_mb=38.0, install_cost_s=0.30),
    Package("tensorflow", "2.12", _RT, size_mb=500.0, install_cost_s=2.5),
    Package("libcos-sdk", "5.9", _RT, size_mb=9.0, install_cost_s=0.15),
    Package("sharp", "0.32", _RT, size_mb=30.0, install_cost_s=0.4),
    Package("imagemagick-java", "7.1", _RT, size_mb=45.0, install_cost_s=0.6),
]

# Whole-level groups: a function that uses "the Alpine OS" installs the whole
# group; Table-I matching compares groups as sets, so two Alpine images still
# L1-match while Debian and CentOS images share glibc/coreutils for the
# similarity metric without matching at L1.
OS_GROUPS: dict[str, List[tuple[str, str]]] = {
    "alpine": [("alpine-base", "3.18"), ("musl", "1.2"),
               ("ca-certificates", "2023")],
    "debian": [("debian-base", "11"), ("glibc", "2.31"),
               ("coreutils", "8.32"), ("ca-certificates", "2023")],
    "centos": [("centos-base", "7"), ("glibc", "2.31"),
               ("coreutils", "8.32"), ("ca-certificates", "2023")],
    "ubuntu": [("ubuntu-base", "20.04"), ("glibc", "2.31"),
               ("coreutils", "8.32"), ("ca-certificates", "2023")],
    "busybox": [("busybox-base", "1.36"), ("musl", "1.2")],
}

LANGUAGE_GROUPS: dict[str, List[tuple[str, str]]] = {
    "java": [("openjdk", "11"), ("maven", "3.8")],
    "nodejs": [("nodejs", "18"), ("npm", "9")],
    "go": [("golang", "1.20")],
    "python": [("python", "3.9.17"), ("pip", "23")],
    "cpp": [("gcc-toolchain", "9")],
}


def default_catalog() -> PackageCatalog:
    """Build the default FStartBench package catalog (deterministic)."""
    return PackageCatalog(_DEFAULT_PACKAGES)


def group_packages(catalog: PackageCatalog, group: List[tuple[str, str]]) -> List[Package]:
    """Resolve a package group (list of ``(name, version)``) to packages."""
    return [catalog.get(name, version) for name, version in group]


def os_group(catalog: PackageCatalog, name: str) -> List[Package]:
    """Resolve an OS group (e.g. ``"alpine"``) to its packages."""
    return group_packages(catalog, OS_GROUPS[name])


def language_group(catalog: PackageCatalog, name: str) -> List[Package]:
    """Resolve a language group (e.g. ``"python"``) to its packages."""
    return group_packages(catalog, LANGUAGE_GROUPS[name])
