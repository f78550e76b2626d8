"""Synthetic Docker Hub registry (reproduces the paper's Figure 3).

The paper's design rationale rests on one measurement: among the top-1000
most-pulled Docker Hub images, a handful of base (OS) images and language
images dominate -- the four most popular base images account for ~77 % of all
base-image pulls.  We cannot scrape Docker Hub offline, so this module builds
a *synthetic* registry whose popularity follows a Zipf law calibrated so that
the published aggregate holds.  The registry drives both the Figure 3
experiment and the popularity-weighted sampling in the Azure-like workload
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.packages.package import PackageLevel


@dataclass(frozen=True)
class RegistryImage:
    """One image in the synthetic registry."""

    name: str
    level: PackageLevel
    pull_count: int

    def __post_init__(self) -> None:
        if self.pull_count < 0:
            raise ValueError("pull_count must be >= 0")


# Named heads match the paper's Figure 3 discussion.
_BASE_IMAGE_NAMES = ["ubuntu", "alpine", "busybox", "centos", "debian", "fedora",
                     "amazonlinux", "archlinux", "opensuse", "rockylinux"]
_LANGUAGE_IMAGE_NAMES = ["python", "openjdk", "golang", "nodejs", "ruby", "php",
                         "rust", "erlang", "perl", "dotnet"]


class SyntheticRegistry:
    """A Zipf-popularity registry of images.

    Parameters
    ----------
    n_images:
        Total number of images to synthesize (the paper looks at the
        top-1000).
    zipf_exponent:
        Skew of the popularity distribution.  The default (1.2) makes the
        top-4 base images hold ~77 % of base-image pulls, matching Fig. 3.
    total_pulls:
        Total pull count mass to distribute.
    seed:
        Seed for the small amount of name-assignment randomness in the tail.
    """

    def __init__(
        self,
        n_images: int = 1000,
        zipf_exponent: float = 1.2,
        total_pulls: int = 10_000_000_000,
        seed: int = 0,
    ) -> None:
        if n_images < 10:
            raise ValueError("need at least 10 images")
        if zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        self.n_images = n_images
        self.zipf_exponent = zipf_exponent
        self.total_pulls = total_pulls
        self._rng = np.random.default_rng(seed)
        self._images = self._build()

    # -- construction -----------------------------------------------------
    def _build(self) -> List[RegistryImage]:
        # Partition the top-1000 into base / language / runtime strata; real
        # Docker Hub has many more runtime/application images than bases.
        n_base = min(len(_BASE_IMAGE_NAMES), max(4, self.n_images // 50))
        n_lang = min(len(_LANGUAGE_IMAGE_NAMES), max(4, self.n_images // 40))
        n_rt = self.n_images - n_base - n_lang

        images: List[RegistryImage] = []
        images += self._stratum(_BASE_IMAGE_NAMES[:n_base], PackageLevel.OS,
                                share=0.45)
        images += self._stratum(_LANGUAGE_IMAGE_NAMES[:n_lang],
                                PackageLevel.LANGUAGE, share=0.25)
        rt_names = [f"app-image-{i:04d}" for i in range(n_rt)]
        images += self._stratum(rt_names, PackageLevel.RUNTIME, share=0.30)
        return sorted(images, key=lambda im: -im.pull_count)

    def _stratum(
        self, names: Sequence[str], level: PackageLevel, share: float
    ) -> List[RegistryImage]:
        """Distribute ``share`` of total pulls over ``names`` by Zipf rank."""
        ranks = np.arange(1, len(names) + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_exponent)
        weights /= weights.sum()
        pulls = np.floor(weights * share * self.total_pulls).astype(np.int64)
        return [
            RegistryImage(name=n, level=level, pull_count=int(c))
            for n, c in zip(names, pulls)
        ]

    # -- queries ------------------------------------------------------------
    def images(self) -> List[RegistryImage]:
        """All images, most-pulled first."""
        return list(self._images)

    def images_at_level(self, level: PackageLevel) -> List[RegistryImage]:
        """All images of one package level, most-pulled first."""
        return [im for im in self._images if im.level == level]

    def top_k_share(self, level: PackageLevel, k: int) -> float:
        """Fraction of a level's pulls captured by its top-``k`` images.

        ``top_k_share(PackageLevel.OS, 4)`` reproduces the paper's 77 %
        headline statistic.
        """
        level_images = self.images_at_level(level)
        total = sum(im.pull_count for im in level_images)
        if total == 0:
            return 0.0
        top = sum(im.pull_count for im in level_images[:k])
        return top / total
