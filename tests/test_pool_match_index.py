"""Consistency tests for the warm pool's fingerprint match index.

The index must mirror pool membership exactly through every mutation --
add, remove, TTL expiry, and the claim/repack/re-add cycle (repack changes
the container's image, so re-adding must re-key it).  Each check compares
the index answers against a brute-force scan of the same pool.
"""

from repro.cluster.pool import PoolSet, WarmPool
from repro.containers.container import ContainerState
from repro.containers.matching import MatchLevel, match_level

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
        head = pool.oldest()
        assert head is not None and head.container_id == 0

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
