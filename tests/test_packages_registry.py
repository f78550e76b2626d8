"""Tests for the synthetic Docker Hub registry (Fig. 3 substrate)."""

import pytest

from repro.packages.package import PackageLevel
from repro.packages.registry import RegistryImage, SyntheticRegistry


class TestRegistryImage:
    def test_negative_pulls_rejected(self):
        with pytest.raises(ValueError):
            RegistryImage("x", PackageLevel.OS, -1)


class TestSyntheticRegistry:
    def test_default_has_1000_images(self):
        assert len(SyntheticRegistry().images()) == 1000

    def test_images_sorted_by_popularity(self):
        pulls = [im.pull_count for im in SyntheticRegistry().images()]
        assert pulls == sorted(pulls, reverse=True)

    def test_top4_base_share_matches_paper(self):
        share = SyntheticRegistry().top_k_share(PackageLevel.OS, 4)
        assert 0.70 <= share <= 0.84  # paper: ~77 %

    def test_named_heads_present(self):
        reg = SyntheticRegistry()
        base_names = {im.name for im in reg.images_at_level(PackageLevel.OS)}
        assert {"ubuntu", "alpine", "busybox", "centos"} <= base_names
        lang_names = {im.name
                      for im in reg.images_at_level(PackageLevel.LANGUAGE)}
        assert {"python", "openjdk", "golang"} <= lang_names

    def test_three_levels_partition(self):
        reg = SyntheticRegistry()
        total = sum(
            len(reg.images_at_level(lvl)) for lvl in PackageLevel
        )
        assert total == reg.n_images

    def test_top_k_share_monotone_in_k(self):
        reg = SyntheticRegistry()
        shares = [reg.top_k_share(PackageLevel.OS, k) for k in range(1, 8)]
        assert shares == sorted(shares)

    def test_full_share_is_one(self):
        reg = SyntheticRegistry()
        n = len(reg.images_at_level(PackageLevel.OS))
        assert reg.top_k_share(PackageLevel.OS, n) == pytest.approx(1.0)

    def test_determinism(self):
        a = SyntheticRegistry(seed=3).images()
        b = SyntheticRegistry(seed=3).images()
        assert a == b

    def test_too_few_images_rejected(self):
        with pytest.raises(ValueError):
            SyntheticRegistry(n_images=3)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            SyntheticRegistry(zipf_exponent=0.0)

    def test_higher_exponent_more_concentrated(self):
        low = SyntheticRegistry(zipf_exponent=0.8)
        high = SyntheticRegistry(zipf_exponent=2.0)
        assert high.top_k_share(PackageLevel.OS, 2) > low.top_k_share(
            PackageLevel.OS, 2
        )
