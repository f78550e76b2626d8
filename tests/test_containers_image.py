"""Tests for FunctionImage."""

import pytest

from repro.containers.image import FunctionImage
from repro.packages.package import PackageLevel, PackageSet

from conftest import make_image, make_package


class TestValidation:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            FunctionImage("", PackageSet([make_package(level=PackageLevel.OS)]))

    def test_requires_os_package(self):
        with pytest.raises(ValueError):
            FunctionImage("x", PackageSet([make_package()]))  # runtime only

    def test_negative_memory_rejected(self):
        ps = PackageSet([make_package(level=PackageLevel.OS)])
        with pytest.raises(ValueError):
            FunctionImage("x", ps, memory_mb=-5)


class TestFromPackages:
    def test_memory_derived_from_size(self):
        pkgs = [
            make_package("os", level=PackageLevel.OS, size_mb=100.0),
            make_package("rt", size_mb=60.0),
        ]
        img = FunctionImage.from_packages("x", pkgs, memory_overhead_mb=32.0)
        assert img.memory_mb == pytest.approx(32.0 + 0.5 * 160.0)

    def test_total_size(self):
        img = make_image()
        assert img.total_size_mb == pytest.approx(
            sum(p.size_mb for p in img.packages)
        )


class TestAccessors:
    def test_level_sets(self):
        img = make_image()
        assert img.level_set(PackageLevel.OS) == img.os_packages
        assert img.level_set(PackageLevel.LANGUAGE) == img.language_packages
        assert img.level_set(PackageLevel.RUNTIME) == img.runtime_packages

    def test_images_hashable_and_frozen(self):
        img = make_image()
        with pytest.raises(AttributeError):
            img.name = "other"  # type: ignore[misc]
