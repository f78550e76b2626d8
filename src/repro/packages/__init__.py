"""Package model substrate.

Serverless function images are composed of *packages*.  Following the paper
(Section IV-A, Fig. 5), every package belongs to one of three levels:

* ``PackageLevel.OS`` (L1) -- base operating-system packages,
* ``PackageLevel.LANGUAGE`` (L2) -- language interpreter / compiler stacks,
* ``PackageLevel.RUNTIME`` (L3) -- application-specific runtime libraries.

This subpackage provides the :class:`~repro.packages.package.Package` value
type, a catalog of realistic package profiles used by FStartBench, a
Dockerfile-style parser that classifies lines into the three levels, the
Jaccard similarity metric used by the benchmark's Metric 1, and a synthetic
Docker Hub registry whose popularity skew is calibrated to the paper's
Figure 3 (top-4 base images account for roughly 77 % of all pulls).
"""

from repro.packages.package import Package, PackageLevel, PackageSet
from repro.packages.catalog import PackageCatalog, default_catalog
from repro.packages.dockerfile import DockerfileParser, ParsedDockerfile
from repro.packages.similarity import (
    jaccard_similarity,
    pairwise_mean_similarity,
    package_size_variance,
)
from repro.packages.registry import RegistryImage, SyntheticRegistry

__all__ = [
    "Package",
    "PackageLevel",
    "PackageSet",
    "PackageCatalog",
    "default_catalog",
    "DockerfileParser",
    "ParsedDockerfile",
    "jaccard_similarity",
    "pairwise_mean_similarity",
    "package_size_variance",
    "RegistryImage",
    "SyntheticRegistry",
]
