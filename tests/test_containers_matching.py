"""Tests for Table-I multi-level matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel, match_level
from repro.packages.package import PackageLevel, PackageSet

from conftest import make_image, make_package


class TestMatchLevel:
    def test_full_match(self):
        a = make_image("a")
        b = make_image("b")
        assert match_level(a, b) is MatchLevel.L3

    def test_l2_match_runtime_differs(self):
        a = make_image("a", runtime_names=("flask",))
        b = make_image("b", runtime_names=("flask", "numpy"))
        assert match_level(a, b) is MatchLevel.L2

    def test_l1_match_language_differs(self):
        a = make_image("a", lang_name="python")
        b = make_image("b", lang_name="nodejs")
        assert match_level(a, b) is MatchLevel.L1

    def test_no_match_os_differs(self):
        a = make_image("a", os_name="alpine")
        b = make_image("b", os_name="debian")
        assert match_level(a, b) is MatchLevel.NO_MATCH

    def test_pruning_os_mismatch_hides_identical_runtime(self):
        """OS mismatch returns NO_MATCH even if L2/L3 are identical."""
        a = make_image("a", os_name="alpine", runtime_names=("flask",))
        b = make_image("b", os_name="debian", runtime_names=("flask",))
        assert match_level(a, b) is MatchLevel.NO_MATCH

    def test_whole_level_semantics(self):
        """A superset at a level is NOT a match (levels compare as wholes)."""
        base = make_image("base", runtime_names=("flask",))
        superset = make_image("sup", runtime_names=("flask", "numpy"))
        assert match_level(base, superset) is not MatchLevel.L3

    def test_symmetry(self):
        a = make_image("a", runtime_names=("flask",))
        b = make_image("b", runtime_names=("numpy",))
        assert match_level(a, b) is match_level(b, a)

    def test_reusable_property(self):
        assert not MatchLevel.NO_MATCH.is_reusable
        for lvl in (MatchLevel.L1, MatchLevel.L2, MatchLevel.L3):
            assert lvl.is_reusable

    def test_ordering(self):
        assert (MatchLevel.NO_MATCH < MatchLevel.L1 < MatchLevel.L2
                < MatchLevel.L3)


# -- property-based -----------------------------------------------------------

level_strategy = st.sampled_from(["alpine", "debian", "centos"])
lang_strategy = st.sampled_from(["python", "nodejs", "java"])
rt_strategy = st.sets(st.sampled_from(["flask", "numpy", "pandas"]),
                      max_size=3)


@given(level_strategy, lang_strategy, rt_strategy,
       level_strategy, lang_strategy, rt_strategy)
def test_match_level_consistent_with_level_equality(os1, l1, r1, os2, l2, r2):
    a = make_image("a", os_name=os1, lang_name=l1, runtime_names=tuple(r1))
    b = make_image("b", os_name=os2, lang_name=l2, runtime_names=tuple(r2))
    result = match_level(a, b)
    os_eq = a.os_packages == b.os_packages
    lang_eq = a.language_packages == b.language_packages
    rt_eq = a.runtime_packages == b.runtime_packages
    if not os_eq:
        assert result is MatchLevel.NO_MATCH
    elif not lang_eq:
        assert result is MatchLevel.L1
    elif not rt_eq:
        assert result is MatchLevel.L2
    else:
        assert result is MatchLevel.L3
