"""Property tests: interned-fingerprint matching == frozenset matching.

The fingerprint hot path (``match_level``) compares interned integers;
``match_level_sets`` compares the per-level frozensets directly.  The two
must agree on *every* image pair, so we drive them with randomized image
catalogs and cross-check, plus pin down the interning invariants the fast
path relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers.matching import (
    MatchLevel,
    match_level,
    match_level_sets,
)
from repro.packages.catalog import LANGUAGE_GROUPS, OS_GROUPS
from repro.packages.package import PackageLevel

from conftest import make_image

RUNTIMES = ("flask", "numpy", "pandas", "matplotlib", "tensorflow")

images = st.builds(
    make_image,
    name=st.just("img"),
    os_name=st.sampled_from(sorted(OS_GROUPS)),
    lang_name=st.sampled_from(sorted(LANGUAGE_GROUPS)),
    runtime_names=st.frozensets(st.sampled_from(RUNTIMES), max_size=3)
    .map(sorted).map(tuple),
)


class TestFingerprintEquivalence:
    @given(a=images, b=images)
    @settings(max_examples=200, deadline=None)
    def test_matches_frozenset_matcher(self, a, b):
        """Fingerprint path agrees with the set path on random pairs."""
        assert match_level(a, b) is match_level_sets(a, b)

    @given(a=images, b=images)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert match_level(a, b) is match_level(b, a)

    @given(img=images)
    @settings(max_examples=50, deadline=None)
    def test_self_match_is_l3(self, img):
        assert match_level(img, img) is MatchLevel.L3


class TestFingerprintInterning:
    def test_equal_sets_share_fingerprints(self):
        """Structurally equal package sets intern to the same tuple."""
        a = make_image("a", runtime_names=("flask", "numpy"))
        b = make_image("b", runtime_names=("numpy", "flask"))
        assert a.fingerprints is b.fingerprints

    def test_distinct_levels_get_distinct_ids(self):
        a = make_image("a", runtime_names=("flask",))
        b = make_image("b", runtime_names=("numpy",))
        assert a.fingerprints[:2] == b.fingerprints[:2]
        assert a.fingerprints[2] != b.fingerprints[2]

    def test_fingerprints_follow_package_levels(self):
        """Each tuple slot corresponds to one Table-I package level."""
        base = make_image("base")
        other_os = make_image("o", os_name="debian")
        other_lang = make_image("l", lang_name="nodejs")
        assert base.fingerprints[0] != other_os.fingerprints[0]
        assert base.fingerprints[0] == other_lang.fingerprints[0]
        assert base.fingerprints[1] != other_lang.fingerprints[1]
        assert len(base.fingerprints) == len(list(PackageLevel))

    def test_pickle_roundtrip_reinterns(self):
        """Unpickled images re-derive fingerprints (ids are process-local)."""
        import pickle

        img = make_image("a", runtime_names=("flask", "pandas"))
        clone = pickle.loads(pickle.dumps(img))
        assert clone.fingerprints is img.fingerprints
        assert match_level(img, clone) is MatchLevel.L3
