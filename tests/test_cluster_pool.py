"""Tests for the fixed-capacity warm pool."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.pool import PoolFullError, WarmPool
from repro.containers.container import ContainerState

from conftest import make_container, make_image


def small_container(cid, mem=100.0, last_used=0.0):
    image = make_image(f"img{cid}")
    object.__setattr__(image, "memory_mb", mem)
    return make_container(cid, image=image, last_used_at=last_used)


class TestCapacity:
    def test_add_within_capacity(self):
        pool = WarmPool(250.0)
        pool.add(small_container(1))
        pool.add(small_container(2))
        assert pool.used_mb == pytest.approx(200.0)
        assert pool.free_mb == pytest.approx(50.0)

    def test_add_beyond_capacity_raises(self):
        pool = WarmPool(150.0)
        pool.add(small_container(1))
        with pytest.raises(PoolFullError):
            pool.add(small_container(2))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WarmPool(-1.0)

    def test_infinite_capacity(self):
        pool = WarmPool(float("inf"))
        for i in range(20):
            pool.add(small_container(i))
        assert len(pool) == 20

    def test_peak_tracking(self):
        pool = WarmPool(1000.0)
        pool.add(small_container(1))
        pool.add(small_container(2))
        pool.remove(1)
        assert pool.peak_used_mb == pytest.approx(200.0)


class TestMembership:
    def test_only_idle_containers(self):
        pool = WarmPool(1000.0)
        busy = small_container(1)
        busy.state = ContainerState.STARTING
        with pytest.raises(ValueError):
            pool.add(busy)

    def test_duplicate_rejected(self):
        pool = WarmPool(1000.0)
        c = small_container(1)
        pool.add(c)
        c2 = small_container(1)
        with pytest.raises(ValueError):
            pool.add(c2)

    def test_remove_returns_container(self):
        pool = WarmPool(1000.0)
        c = small_container(1)
        pool.add(c)
        assert pool.remove(1) is c
        assert 1 not in pool

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            WarmPool(100.0).remove(42)

    def test_get(self):
        pool = WarmPool(1000.0)
        c = small_container(1)
        pool.add(c)
        assert pool.get(1) is c
        assert pool.get(2) is None


class TestLRUOrdering:
    def test_insertion_order_is_lru_order(self):
        pool = WarmPool(1000.0)
        for i in range(3):
            pool.add(small_container(i))
        assert [c.container_id for c in pool.lru_order()] == [0, 1, 2]

    def test_touch_moves_to_mru(self):
        pool = WarmPool(1000.0)
        for i in range(3):
            pool.add(small_container(i))
        pool.touch(0)
        assert [c.container_id for c in pool.lru_order()] == [1, 2, 0]

    def test_touch_unknown_raises(self):
        with pytest.raises(KeyError):
            WarmPool(100.0).touch(9)

    def test_iteration_matches_lru(self):
        pool = WarmPool(1000.0)
        for i in range(4):
            pool.add(small_container(i))
        assert [c.container_id for c in pool] == [0, 1, 2, 3]


# -- property: capacity invariant under arbitrary add/remove sequences --------

@given(st.lists(
    st.tuples(st.sampled_from(["add", "remove"]),
              st.integers(min_value=0, max_value=9),
              st.floats(min_value=1.0, max_value=400.0, allow_nan=False)),
    max_size=60,
))
def test_capacity_never_exceeded(ops):
    pool = WarmPool(500.0)
    live = {}
    for op, cid, mem in ops:
        if op == "add" and cid not in live:
            c = small_container(cid, mem=mem)
            try:
                pool.add(c)
                live[cid] = c
            except PoolFullError:
                pass
        elif op == "remove" and cid in live:
            pool.remove(cid)
            del live[cid]
        assert pool.used_mb <= pool.capacity_mb + 1e-9
        assert pool.used_mb == pytest.approx(
            sum(c.memory_mb for c in live.values())
        )
