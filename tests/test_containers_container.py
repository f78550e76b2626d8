"""Tests for the container lifecycle state machine."""

import pytest

from repro.containers.container import Container, ContainerState

from conftest import make_container, make_image


class TestLifecycle:
    def test_full_happy_cycle(self):
        c = Container(1, make_image(), state=ContainerState.STARTING)
        c.begin_startup("f", now=0.0, busy_until=2.0)
        assert c.is_busy and c.busy_until == 2.0
        c.finish_execution(now=2.0)
        assert c.is_idle
        c.claim()
        assert c.state is ContainerState.STARTING
        assert c.reuse_count == 1

    def test_evict_from_idle(self):
        c = make_container(1)
        c.evict()
        assert c.state is ContainerState.EVICTED

    def test_evict_from_busy_rejected(self):
        c = Container(1, make_image(), state=ContainerState.STARTING)
        with pytest.raises(RuntimeError):
            c.evict()

    def test_claim_requires_idle(self):
        c = Container(1, make_image(), state=ContainerState.STARTING)
        with pytest.raises(RuntimeError):
            c.claim()

    def test_finish_requires_busy(self):
        c = make_container(1)
        with pytest.raises(RuntimeError):
            c.finish_execution(0.0)

    def test_begin_startup_from_idle_allowed(self):
        c = make_container(1)
        c.begin_startup("f", 5.0, 6.0)
        assert c.current_function == "f"
        assert c.state is ContainerState.STARTING


class TestProperties:
    def test_memory_tracks_image(self):
        img = make_image()
        c = make_container(1, image=img)
        assert c.memory_mb == img.memory_mb

    def test_idle_duration(self):
        c = make_container(1, last_used_at=10.0)
        assert c.idle_duration(25.0) == pytest.approx(15.0)
        assert c.idle_duration(5.0) == 0.0  # clamped

    def test_idle_duration_zero_when_busy(self):
        c = Container(1, make_image(), state=ContainerState.STARTING,
                      last_used_at=0.0)
        assert c.idle_duration(100.0) == 0.0

    def test_repack_changes_memory(self):
        small = make_image("small")
        big = make_image("big", runtime_names=("tensorflow",))
        c = make_container(1, image=small)
        before = c.memory_mb
        c.image = big
        assert c.memory_mb > before
