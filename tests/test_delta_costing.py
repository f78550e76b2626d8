"""Tests for W-style delta costing and the AlwaysAdopt scheduler."""

import pytest

from repro.containers.costmodel import StartupCostModel
from repro.containers.matching import MatchLevel
from repro.schedulers.base import COLD
from repro.schedulers.walways import AlwaysAdoptScheduler

from conftest import (
    decide,
    make_container,
    make_ctx,
    make_image,
    make_invocation,
    make_spec,
)


@pytest.fixture
def model():
    return StartupCostModel()


class TestDeltaBreakdown:
    def test_identical_images_are_fully_warm(self, model):
        img = make_image("a")
        bd = model.delta_breakdown(img, img, function_init_s=1.0)
        assert bd.pull_s == 0.0
        assert bd.install_s == 0.0
        assert bd.runtime_init_s == 0.0
        assert bd.function_init_s == pytest.approx(
            model.params.warm_function_factor
        )

    def test_superset_container_is_fully_warm(self, model):
        """A container holding extra packages still serves the function
        warm -- the defining advantage over whole-level matching."""
        fn = make_image("fn", runtime_names=("flask",))
        zygote = make_image("zy", runtime_names=("flask", "numpy", "pandas"))
        bd = model.delta_breakdown(fn, zygote, function_init_s=0.5)
        assert bd.pull_s == 0.0
        # Whole-level matching would only give L2 here.
        from repro.containers.matching import match_level

        assert match_level(fn, zygote) is MatchLevel.L2
        level_cost = model.latency_s(fn, MatchLevel.L2, 0.5)
        assert bd.total_s < level_cost

    def test_partial_overlap_pulls_only_missing(self, model):
        fn = make_image("fn", runtime_names=("flask", "numpy"))
        container = make_image("c", runtime_names=("flask",))
        bd = model.delta_breakdown(fn, container, function_init_s=0.0)
        missing = {p for p in fn.runtime_packages if p.name == "numpy"}
        assert bd.pull_s == pytest.approx(
            model.pull_time_s(frozenset(missing))
        )

    def test_language_missing_pays_full_runtime_init(self, model):
        fn = make_image("fn", lang_name="python")
        container = make_image("c", lang_name="nodejs")
        bd = model.delta_breakdown(fn, container, function_init_s=0.0)
        assert bd.runtime_init_s == pytest.approx(
            model.runtime_init_time_s(fn)
        )

    def test_os_mismatch_rejected(self, model):
        fn = make_image("fn", os_name="alpine")
        container = make_image("c", os_name="debian")
        with pytest.raises(ValueError):
            model.delta_breakdown(fn, container, 0.0)

    def test_negative_init_rejected(self, model):
        img = make_image("a")
        with pytest.raises(ValueError):
            model.delta_breakdown(img, img, -1.0)

    def test_delta_never_worse_than_level_cost(self, model):
        """Delta reuse is at least as cheap as the same-container Table-I
        reuse (it skips packages already present)."""
        fn = make_image("fn", runtime_names=("flask", "numpy"))
        for container in (
            make_image("c1", runtime_names=("flask", "numpy")),   # L3
            make_image("c2", runtime_names=("flask",)),           # L2
            make_image("c3", lang_name="nodejs"),                 # L1
        ):
            from repro.containers.matching import match_level

            level = match_level(fn, container)
            delta = model.delta_breakdown(fn, container, 0.3).total_s
            level_cost = model.latency_s(fn, level, 0.3)
            assert delta <= level_cost + 1e-9


class TestAlwaysAdoptScheduler:
    def test_adopts_superset_container(self):
        spec = make_spec(name="f", image=make_image("f",
                                                    runtime_names=("flask",)))
        zygote = make_container(
            1, image=make_image("z", runtime_names=("flask", "numpy"))
        )
        ctx = make_ctx(make_invocation(spec), idle_containers=[zygote])
        assert decide(AlwaysAdoptScheduler(), ctx)[0] is zygote

    def test_ignores_other_os(self):
        spec = make_spec(name="f", image=make_image("f", os_name="alpine"))
        other = make_container(1, image=make_image("o", os_name="debian"))
        ctx = make_ctx(make_invocation(spec), idle_containers=[other])
        assert decide(AlwaysAdoptScheduler(), ctx) == COLD

    def test_picks_cheapest_delta(self):
        spec = make_spec(
            name="f", image=make_image("f", runtime_names=("flask", "numpy"))
        )
        far = make_container(1, image=make_image("far", lang_name="nodejs"))
        near = make_container(2, image=make_image("near",
                                                  runtime_names=("flask",)))
        ctx = make_ctx(make_invocation(spec), idle_containers=[far, near])
        assert decide(AlwaysAdoptScheduler(), ctx)[0] is near

    def test_cold_when_empty(self):
        ctx = make_ctx(make_invocation(make_spec()))
        assert decide(AlwaysAdoptScheduler(), ctx) == COLD
