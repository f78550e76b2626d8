"""Unit tests for the package catalog and group resolution."""

import pytest

from repro.packages.catalog import (
    LANGUAGE_GROUPS,
    OS_GROUPS,
    PackageCatalog,
    default_catalog,
    language_group,
    os_group,
)
from repro.packages.package import PackageLevel

from conftest import make_package


class TestPackageCatalog:
    def test_add_and_get(self):
        cat = PackageCatalog()
        pkg = make_package("x", "1.0")
        cat.add(pkg)
        assert cat.get("x", "1.0") is pkg

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            PackageCatalog().get("nope", "0")

    def test_conflicting_metadata_rejected(self):
        cat = PackageCatalog()
        cat.add(make_package("x", "1.0", size_mb=10.0))
        with pytest.raises(ValueError):
            cat.add(make_package("x", "1.0", size_mb=10.0, install_cost_s=9.0))

    def test_identical_readd_is_idempotent(self):
        cat = PackageCatalog()
        cat.add(make_package("x", "1.0"))
        cat.add(make_package("x", "1.0"))
        assert len(cat) == 1

    def test_contains_by_key(self):
        cat = PackageCatalog([make_package("x", "2")])
        assert "x==2" in cat
        assert "x==3" not in cat

    def test_by_key(self):
        cat = PackageCatalog([make_package("x", "2")])
        assert cat.by_key("x==2").name == "x"

    def test_at_level(self):
        cat = PackageCatalog([
            make_package("os1", level=PackageLevel.OS),
            make_package("rt1", level=PackageLevel.RUNTIME),
        ])
        assert [p.name for p in cat.at_level(PackageLevel.OS)] == ["os1"]


class TestDefaultCatalog:
    def test_contains_core_stacks(self, catalog):
        for name, version in [
            ("alpine-base", "3.18"), ("debian-base", "11"),
            ("python", "3.9.17"), ("openjdk", "11"),
            ("tensorflow", "2.12"), ("flask", "2.3"),
        ]:
            assert f"{name}=={version}" in catalog

    def test_all_three_levels_populated(self, catalog):
        for level in PackageLevel:
            assert catalog.at_level(level), f"no packages at {level}"

    def test_deterministic_rebuild(self):
        a = default_catalog()
        b = default_catalog()
        assert a.key_order() == b.key_order()
        assert [a.by_key(k) for k in a.key_order()] == [
            b.by_key(k) for k in b.key_order()
        ]


class TestGroups:
    def test_all_os_groups_resolve(self, catalog):
        for name in OS_GROUPS:
            pkgs = os_group(catalog, name)
            assert pkgs
            assert all(p.level is PackageLevel.OS for p in pkgs)

    def test_all_language_groups_resolve(self, catalog):
        for name in LANGUAGE_GROUPS:
            pkgs = language_group(catalog, name)
            assert pkgs
            assert all(p.level is PackageLevel.LANGUAGE for p in pkgs)

    def test_debian_and_centos_share_glibc(self, catalog):
        debian = set(os_group(catalog, "debian"))
        centos = set(os_group(catalog, "centos"))
        shared = {p.name for p in debian & centos}
        assert "glibc" in shared  # drives non-trivial Jaccard similarity

    def test_alpine_and_debian_differ_as_levels(self, catalog):
        assert set(os_group(catalog, "alpine")) != set(os_group(catalog, "debian"))

    def test_unknown_group_raises(self, catalog):
        with pytest.raises(KeyError):
            os_group(catalog, "windows")
