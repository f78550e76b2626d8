"""Unit tests for the Package / PackageSet value types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packages.package import Package, PackageLevel, PackageSet

from conftest import make_package


class TestPackage:
    def test_key_combines_name_and_version(self):
        pkg = make_package("numpy", "1.24")
        assert pkg.key == "numpy==1.24"

    def test_same_name_different_version_are_different(self):
        a = make_package("numpy", "1.24")
        b = make_package("numpy", "1.25")
        assert a != b

    def test_equality_ignores_metadata(self):
        a = Package("x", "1", PackageLevel.OS, 10.0, 0.1)
        b = Package("x", "1", PackageLevel.RUNTIME, 99.0, 9.9)
        assert a == b  # identity is (name, version) only

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Package("", "1", PackageLevel.OS, 1.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Package("x", "1", PackageLevel.OS, -1.0)

    def test_negative_install_cost_rejected(self):
        with pytest.raises(ValueError):
            Package("x", "1", PackageLevel.OS, 1.0, install_cost_s=-0.5)

    def test_level_labels(self):
        assert PackageLevel.OS.label == "L1"
        assert PackageLevel.LANGUAGE.label == "L2"
        assert PackageLevel.RUNTIME.label == "L3"

    def test_levels_are_ordered_by_depth(self):
        assert PackageLevel.OS < PackageLevel.LANGUAGE < PackageLevel.RUNTIME


class TestPackageSet:
    def test_partitions_by_level(self):
        os_pkg = make_package("alpine", "3", PackageLevel.OS)
        lang = make_package("python", "3.9", PackageLevel.LANGUAGE)
        rt = make_package("flask", "2", PackageLevel.RUNTIME)
        ps = PackageSet([os_pkg, lang, rt])
        assert ps.os_packages == frozenset([os_pkg])
        assert ps.language_packages == frozenset([lang])
        assert ps.runtime_packages == frozenset([rt])

    def test_len_and_iteration(self):
        pkgs = [make_package(f"p{i}") for i in range(5)]
        ps = PackageSet(pkgs)
        assert len(ps) == 5
        assert set(ps) == set(pkgs)

    def test_duplicates_collapse(self):
        pkg = make_package("x")
        ps = PackageSet([pkg, pkg, make_package("x")])
        assert len(ps) == 1

    def test_equality_and_hash(self):
        a = PackageSet([make_package("a"), make_package("b")])
        b = PackageSet([make_package("b"), make_package("a")])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_with_other_types(self):
        assert PackageSet() != "not a set"

    def test_total_size(self):
        ps = PackageSet([make_package("a", size_mb=3.0),
                         make_package("b", size_mb=7.0)])
        assert ps.total_size_mb == pytest.approx(10.0)

    def test_level_size(self):
        ps = PackageSet([
            make_package("os1", level=PackageLevel.OS, size_mb=5.0),
            make_package("rt1", level=PackageLevel.RUNTIME, size_mb=11.0),
        ])
        assert ps.level_size_mb(PackageLevel.OS) == pytest.approx(5.0)
        assert ps.level_size_mb(PackageLevel.RUNTIME) == pytest.approx(11.0)
        assert ps.level_size_mb(PackageLevel.LANGUAGE) == 0.0

    def test_union(self):
        a = PackageSet([make_package("a")])
        b = PackageSet([make_package("b")])
        assert set((a.union(b)).names()) == {"a==1.0", "b==1.0"}

    def test_names(self):
        ps = PackageSet([make_package("x", "2.0")])
        assert ps.names() == frozenset({"x==2.0"})

    def test_contains(self):
        pkg = make_package("x")
        assert pkg in PackageSet([pkg])
        assert make_package("y") not in PackageSet([pkg])


@given(
    sizes=st.lists(st.floats(min_value=0.0, max_value=1e4,
                             allow_nan=False), min_size=0, max_size=20)
)
def test_total_size_is_sum_of_unique_packages(sizes):
    pkgs = [make_package(f"p{i}", size_mb=s) for i, s in enumerate(sizes)]
    ps = PackageSet(pkgs)
    assert ps.total_size_mb == pytest.approx(sum(sizes))


@given(st.integers(min_value=0, max_value=30))
def test_packageset_levels_partition_everything(n):
    levels = [PackageLevel.OS, PackageLevel.LANGUAGE, PackageLevel.RUNTIME]
    pkgs = [make_package(f"p{i}", level=levels[i % 3]) for i in range(n)]
    ps = PackageSet(pkgs)
    total = sum(len(ps.level_set(lvl)) for lvl in levels)
    assert total == len(ps) == n
