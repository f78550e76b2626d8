"""Consistency tests for the warm pool's fingerprint match index.

The index must mirror pool membership exactly through every mutation --
add, remove, TTL expiry, and the claim/repack/re-add cycle (repack changes
the container's image, so re-adding must re-key it).  Each check compares
the index answers against a brute-force scan of the same pool.  Every
bucket must also iterate in ascending ``(last_used_at, container_id)``
order, which the MRU lookups' tail reads rely on; a hypothesis property
test drives arbitrary add / remove / expiry / lend sequences for that.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.pool import PoolSet, WarmPool
from repro.containers.container import ContainerState
from repro.containers.matching import MatchLevel, match_level
from repro.verify.invariants import InvariantViolation, PoolIndexMonitor

from conftest import make_container, make_image


def scan_depth_counts(pool, image):
    """Brute-force per-level counts, the index's ground truth."""
    counts = [0, 0, 0, 0]
    for c in pool.containers():
        counts[int(match_level(image, c.image))] += 1
    return tuple(counts)


def scan_best_match(pool, image):
    """Brute-force deepest match with MRU tie-break."""
    best, best_level = None, MatchLevel.NO_MATCH
    for c in pool.containers():
        level = match_level(image, c.image)
        if level > best_level or (
            level == best_level
            and best is not None
            and (c.last_used_at, c.container_id)
            > (best.last_used_at, best.container_id)
        ):
            if level.is_reusable:
                best, best_level = c, level
    return best, best_level


def assert_index_consistent(pool, images):
    """Index answers equal brute-force scans for every probe image."""
    for image in images:
        assert pool.match_depth_counts(image) == scan_depth_counts(pool, image)
        container, level = pool.best_match(image)
        expected_container, expected_level = scan_best_match(pool, image)
        assert level is expected_level
        assert container is expected_container


def scan_best_at_level(pool, image, level):
    """Brute-force MRU container matching at exactly ``level``."""
    at_level = [
        c for c in pool.containers() if match_level(image, c.image) is level
    ]
    return max(
        at_level, key=lambda c: (c.last_used_at, c.container_id),
        default=None,
    )


def assert_level_queries_consistent(pool, images):
    """``best_exact`` / ``best_at_level`` / ``match_candidates`` equal
    brute-force scans for every probe image and level."""
    for image in images:
        assert pool.best_exact(image) is scan_best_at_level(
            pool, image, MatchLevel.L3
        )
        for level in (MatchLevel.L1, MatchLevel.L2, MatchLevel.L3):
            assert pool.best_at_level(image, level) is scan_best_at_level(
                pool, image, level
            )
        for level in MatchLevel:
            expected = sorted(
                c.container_id for c in pool.containers()
                if match_level(image, c.image) >= level
            )
            got = sorted(
                c.container_id for c in pool.match_candidates(image, level)
            )
            assert got == expected


def make_probe_images():
    return [
        make_image("p-full"),
        make_image("p-l2", runtime_names=("numpy",)),
        make_image("p-l1", lang_name="nodejs"),
        make_image("p-no", os_name="debian"),
    ]


class TestWarmPoolIndex:
    def test_add_remove_keeps_index_consistent(self):
        pool = WarmPool(capacity_mb=float("inf"))
        probes = make_probe_images()
        variants = [
            make_image("v0"),
            make_image("v1", runtime_names=("numpy",)),
            make_image("v2", lang_name="nodejs"),
            make_image("v3", os_name="debian"),
        ]
        for i in range(12):
            pool.add(make_container(i, image=variants[i % 4],
                                    last_used_at=float(i)))
            assert_index_consistent(pool, probes)
        for i in (3, 0, 11, 7):
            pool.remove(i)
            assert_index_consistent(pool, probes)

    def test_expiry_keeps_index_consistent(self):
        pool = WarmPool(capacity_mb=float("inf"))
        probes = make_probe_images()
        for i in range(8):
            pool.add(make_container(i, last_used_at=float(i)))
        expired = pool.expire_older_than(4.0)
        assert sorted(c.container_id for c in expired) == [0, 1, 2, 3]
        assert len(pool) == 4
        assert_index_consistent(pool, probes)

    def test_expiry_only_pops_expired_heads(self):
        pool = WarmPool(capacity_mb=float("inf"))
        for i in range(5):
            pool.add(make_container(i, last_used_at=float(i)))
        assert pool.expire_older_than(0.0) == []
        assert len(pool) == 5
        assert next(iter(pool)).container_id == 0

    def test_repack_rekeys_index(self):
        """claim -> repack (image swap) -> re-add must re-key the entry."""
        pool = WarmPool(capacity_mb=float("inf"))
        probes = make_probe_images()
        old_image = make_image("old")
        new_image = make_image("new", runtime_names=("numpy", "pandas"))
        c = make_container(1, image=old_image)
        pool.add(c)
        assert pool.best_match(old_image)[1] is MatchLevel.L3

        claimed = pool.remove(1)
        claimed.claim()
        claimed.image = new_image  # what the cleaner's repack does
        claimed.state = ContainerState.IDLE
        pool.add(claimed)

        assert pool.best_match(new_image)[1] is MatchLevel.L3
        assert pool.best_match(old_image)[1] is MatchLevel.L2
        assert_index_consistent(pool, probes + [new_image])

    def test_mutated_image_while_pooled_still_removable(self):
        """Removal uses the add-time key even if the image was swapped."""
        pool = WarmPool(capacity_mb=float("inf"))
        c = make_container(1, image=make_image("old"))
        pool.add(c)
        c.image = make_image("new", runtime_names=("tensorflow",))
        removed = pool.remove(1)
        assert removed is c
        assert len(pool) == 0
        assert pool.match_depth_counts(make_image("old")) == (0, 0, 0, 0)

    def test_match_candidates_levels_nest(self):
        pool = WarmPool(capacity_mb=float("inf"))
        image = make_image("probe")
        pool.add(make_container(1, image=make_image("a")))
        pool.add(make_container(2, image=make_image("b", runtime_names=("numpy",))))
        pool.add(make_container(3, image=make_image("c", lang_name="nodejs")))
        pool.add(make_container(4, image=make_image("d", os_name="debian")))
        l3 = {c.container_id for c in pool.match_candidates(image, MatchLevel.L3)}
        l2 = {c.container_id for c in pool.match_candidates(image, MatchLevel.L2)}
        l1 = {c.container_id for c in pool.match_candidates(image, MatchLevel.L1)}
        assert l3 == {1}
        assert l2 == {1, 2}
        assert l1 == {1, 2, 3}
        assert l3 <= l2 <= l1


class TestPoolSetIndex:
    def test_sharded_queries_match_scan(self):
        pools = PoolSet(capacity_mb=float("inf"), n_shards=3)
        probes = make_probe_images()
        variants = [
            make_image("v0"),
            make_image("v1", runtime_names=("numpy",)),
            make_image("v2", lang_name="nodejs"),
            make_image("v3", os_name="debian"),
        ]
        for i in range(12):
            pools.add(make_container(i, image=variants[i % 4],
                                     last_used_at=float(i)),
                      shard_index=i)
        assert_index_consistent(pools, probes)
        assert_level_queries_consistent(pools, probes)
        for i in (2, 5, 9):
            pools.remove(i)
        assert_index_consistent(pools, probes)
        assert_level_queries_consistent(pools, probes)
        # Equal recency on different shards: the merged MRU pick breaks
        # the tie on container id, like the scan.
        for i in range(12, 20):
            pools.add(make_container(i, image=variants[i % 4],
                                     last_used_at=20.0),
                      shard_index=i)
        assert_index_consistent(pools, probes)
        assert_level_queries_consistent(pools, probes)

    def test_sharded_expiry_pops_shard_map(self):
        pools = PoolSet(capacity_mb=float("inf"), n_shards=2)
        for i in range(6):
            pools.add(make_container(i, last_used_at=float(i)), shard_index=i)
        expired = pools.expire_older_than(3.0)
        assert sorted(c.container_id for c in expired) == [0, 1, 2]
        assert len(pools) == 3
        for c in expired:
            assert c.container_id not in pools

    def test_exact_matches_mru_first(self):
        pools = PoolSet(capacity_mb=float("inf"), n_shards=2)
        image = make_image("probe")
        for i in range(4):
            pools.add(make_container(i, last_used_at=float(i)), shard_index=i)
        ids = [c.container_id for c in pools.exact_matches(image)]
        assert ids == [3, 2, 1, 0]


# -- bucket order: property test --------------------------------------------

#: Pooled images: one base, then one per Table-I level it diverges at, and
#: a second runtime so two L2 buckets share an L1 bucket.
ORDER_IMAGES = [
    make_image("o-base"),
    make_image("o-l2", runtime_names=("numpy",)),
    make_image("o-l2b", runtime_names=("pandas",)),
    make_image("o-l1", lang_name="nodejs"),
    make_image("o-no", os_name="debian"),
]

#: ``last_used_at`` values: few, so ties and out-of-order adds are common.
_TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 5.0])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40),
                  st.integers(0, len(ORDER_IMAGES) - 1), _TIMES,
                  st.integers(0, 1)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("expire"), _TIMES),
        st.tuples(st.just("lend"), st.integers(0, 40),
                  st.integers(0, len(ORDER_IMAGES) - 1), _TIMES),
    ),
    max_size=40,
)


def mru(c):
    return (c.last_used_at, c.container_id)


def assert_buckets_ordered(shard):
    """Every L1/L2/L3 bucket iterates in ascending MRU key order."""
    for index in (shard._idx_l1, shard._idx_l2, shard._idx_l3):
        for bucket in index.values():
            keys = [mru(c) for c in bucket.values()]
            assert keys == sorted(keys)


def assert_queries_match_scan(pool, probes):
    """Every MRU and candidate query equals a brute-force scan."""
    assert_index_consistent(pool, probes)
    assert_level_queries_consistent(pool, probes)
    members = pool.containers()
    for image in probes:
        exact = [c for c in members if match_level(image, c.image)
                 is MatchLevel.L3]
        assert pool.exact_matches(image) == sorted(exact, key=mru,
                                                   reverse=True)
        if isinstance(pool, WarmPool):
            for level in (MatchLevel.L1, MatchLevel.L2, MatchLevel.L3):
                expected = sorted(
                    (c for c in members if match_level(image, c.image)
                     >= level),
                    key=mru,
                )
                assert pool.match_candidates(image, level) == expected


def put(pool, container, shard):
    """Add to a ``WarmPool``, or to shard ``shard`` of a ``PoolSet``."""
    if isinstance(pool, WarmPool):
        pool.add(container)
    else:
        pool.add(container, shard_index=shard)


def apply_op(pool, op):
    """Apply one generated step to a ``WarmPool`` or a ``PoolSet``."""
    kind = op[0]
    if kind == "add":
        _, cid, image_i, t, shard = op
        if cid not in pool:
            put(pool, make_container(cid, image=ORDER_IMAGES[image_i],
                                     last_used_at=t), shard)
    elif kind == "remove":
        if op[1] in pool:
            pool.remove(op[1])
    elif kind == "expire":
        pool.expire_older_than(op[1])
    else:
        # Lend-style: take the container out, re-stamp and re-image it,
        # and put it back on the shard it came from.
        _, cid, image_i, t = op
        if cid not in pool:
            return
        shard = None if isinstance(pool, WarmPool) else pool._shard_of[cid]
        container = pool.remove(cid)
        container.image, container.last_used_at = ORDER_IMAGES[image_i], t
        put(pool, container, shard)


class TestBucketOrder:
    """Buckets stay MRU-ordered under any mutation sequence, so the tail
    reads of ``best_*`` and ``exact_matches`` equal brute-force scans."""

    probes = make_probe_images() + ORDER_IMAGES

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_warm_pool_order_and_queries(self, ops):
        pool = WarmPool(capacity_mb=float("inf"))
        for op in ops:
            apply_op(pool, op)
            assert_buckets_ordered(pool)
            assert_queries_match_scan(pool, self.probes)

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_pool_set_order_and_queries(self, ops):
        pools = PoolSet(capacity_mb=float("inf"), n_shards=2)
        monitor = PoolIndexMonitor()
        monitor.attach(SimpleNamespace(pool=pools))
        for op in ops:
            apply_op(pools, op)
            for shard in pools._shards:
                assert_buckets_ordered(shard)
            monitor.check()
            assert_queries_match_scan(pools, self.probes)

    def test_out_of_order_add_resorts_its_buckets(self):
        pool = WarmPool(capacity_mb=float("inf"))
        image = ORDER_IMAGES[0]
        for cid, t in ((5, 3.0), (2, 1.0), (9, 3.0), (1, 3.0)):
            pool.add(make_container(cid, image=image, last_used_at=t))
        assert [c.container_id for c in pool.exact_matches(image)] == [
            9, 5, 1, 2,
        ]
        assert pool.best_exact(image).container_id == 9

    def test_monitor_flags_disordered_bucket(self):
        pools = PoolSet(capacity_mb=float("inf"), n_shards=1)
        for cid in range(3):
            pools.add(make_container(cid, last_used_at=float(cid)),
                      shard_index=0)
        monitor = PoolIndexMonitor()
        monitor.attach(SimpleNamespace(pool=pools))
        monitor.check()
        # Re-stamping a pooled container behind the pool's back breaks
        # the order the tail reads rely on.
        pools.get(0).last_used_at = 10.0
        with pytest.raises(InvariantViolation, match="ascending"):
            monitor.check()
