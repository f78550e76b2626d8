"""Fixed-capacity warm container pool with an O(1) match index.

The pool holds *idle* warm containers up to a memory capacity in MB (the
paper's fix-sized warm resource pool).  Busy containers are tracked by the
simulator, not the pool; only keep-alive decisions consume pool capacity.

The pool maintains LRU ordering (most recently used last) so eviction
policies and matching tie-breaks can iterate in recency order.

Beyond membership, each pool maintains a **match index**: three dicts
mapping level-fingerprint prefixes (see
``PackageSet.level_fingerprints``) to the idle containers whose image
shares that prefix.  A function image with fingerprints ``(f1, f2, f3)``
then finds

* its exact (L3) candidates under key ``(f1, f2, f3)``,
* its L2-or-deeper candidates under key ``(f1, f2)``, and
* its L1-or-deeper candidates under key ``f1``,

so :meth:`WarmPool.best_match` and :meth:`WarmPool.match_depth_counts` are
dictionary lookups instead of linear scans over the pool.  The index is
keyed by the fingerprints a container had when it was added (kept per
container id), so removal stays correct even if a caller mutates a pooled
container's image -- re-adding after a repack re-keys it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.containers.container import Container
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel


class PoolFullError(RuntimeError):
    """Raised when adding a container would exceed the pool capacity."""


def _mru_key(container: Container) -> Tuple[float, int]:
    """Recency sort key: greater means more recently used."""
    return (container.last_used_at, container.container_id)


def _most_recent(
    containers: Iterable[Optional[Container]],
) -> Optional[Container]:
    """The most recently used of ``containers`` (Nones skipped), or None."""
    found = [c for c in containers if c is not None]
    return max(found, key=_mru_key) if found else None


class WarmPool:
    """A memory-bounded collection of idle warm containers.

    Parameters
    ----------
    capacity_mb:
        Total memory reserved for warm containers.  ``float("inf")`` models
        an unbounded pool (used to compute the paper's *Loose* sizing).
    """

    def __init__(self, capacity_mb: float) -> None:
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be >= 0")
        self.capacity_mb = capacity_mb
        self._containers: "OrderedDict[int, Container]" = OrderedDict()
        self._used_mb = 0.0
        self.peak_used_mb = 0.0
        # Match index: fingerprint prefix -> {container_id: Container}
        # (insertion-ordered; MRU selection still resolves ties by
        # (last_used_at, container_id) for exact LRU-scan parity).
        self._idx_l1: Dict[int, Dict[int, Container]] = {}
        self._idx_l2: Dict[Tuple[int, int], Dict[int, Container]] = {}
        self._idx_l3: Dict[Tuple[int, int, int], Dict[int, Container]] = {}
        self._index_keys: Dict[int, Tuple[int, int, int]] = {}

    # -- capacity -----------------------------------------------------------
    @property
    def used_mb(self) -> float:
        """Memory currently consumed by idle warm containers."""
        return self._used_mb

    @property
    def free_mb(self) -> float:
        """Remaining warm-pool capacity."""
        return self.capacity_mb - self._used_mb

    def fits(self, container: Container) -> bool:
        """Whether ``container`` fits in the remaining capacity."""
        return container.memory_mb <= self.free_mb

    # -- membership ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._containers)

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._containers

    def __iter__(self) -> Iterator[Container]:
        """Iterate least-recently-used first."""
        return iter(self._containers.values())

    def containers(self) -> List[Container]:
        """Snapshot list, least-recently-used first."""
        return list(self._containers.values())

    def get(self, container_id: int) -> Optional[Container]:
        """Look up by id; returns None when absent."""
        return self._containers.get(container_id)

    # -- mutation ----------------------------------------------------------
    def add(self, container: Container) -> None:
        """Insert an idle container as most-recently-used.

        Raises
        ------
        PoolFullError
            When the container does not fit; callers evict first.
        ValueError
            When the container is not idle or already present.
        """
        if not container.is_idle:
            raise ValueError(
                f"container {container.container_id} is {container.state.value}, "
                "only idle containers can be pooled"
            )
        if container.container_id in self._containers:
            raise ValueError(f"container {container.container_id} already pooled")
        if not self.fits(container):
            raise PoolFullError(
                f"container {container.container_id} "
                f"({container.memory_mb:.0f}MB) exceeds free capacity "
                f"({self.free_mb:.0f}MB)"
            )
        cid = container.container_id
        self._containers[cid] = container
        self._used_mb += container.memory_mb
        self.peak_used_mb = max(self.peak_used_mb, self._used_mb)
        fps = container.image.fingerprints
        self._idx_l1.setdefault(fps[0], {})[cid] = container
        self._idx_l2.setdefault(fps[:2], {})[cid] = container
        self._idx_l3.setdefault(fps, {})[cid] = container
        self._index_keys[cid] = fps

    def remove(self, container_id: int) -> Container:
        """Remove and return a pooled container (claimed or evicted)."""
        container = self._containers.pop(container_id, None)
        if container is None:
            raise KeyError(f"container {container_id} not in pool")
        self._used_mb -= container.memory_mb
        # Guard against float drift accumulating below zero.
        if self._used_mb < 1e-9:
            self._used_mb = 0.0
        fps = self._index_keys.pop(container_id)
        for index, key in (
            (self._idx_l1, fps[0]),
            (self._idx_l2, fps[:2]),
            (self._idx_l3, fps),
        ):
            bucket = index[key]
            del bucket[container_id]
            if not bucket:
                del index[key]
        return container

    def touch(self, container_id: int) -> None:
        """Mark a container most-recently-used (moves it to the LRU tail)."""
        if container_id not in self._containers:
            raise KeyError(f"container {container_id} not in pool")
        self._containers.move_to_end(container_id)

    def lru_order(self) -> List[Container]:
        """Containers least-recently-used first (eviction candidates)."""
        return list(self._containers.values())

    def oldest(self) -> Optional[Container]:
        """The least-recently-used pooled container (None when empty)."""
        if not self._containers:
            return None
        return next(iter(self._containers.values()))

    # -- match index --------------------------------------------------------
    def match_candidates(
        self, image: FunctionImage, level: MatchLevel
    ) -> List[Container]:
        """Idle containers matching ``image`` at least at ``level``.

        Returned in index insertion order (oldest first); ``NO_MATCH``
        returns every pooled container.
        """
        f = image.fingerprints
        if level is MatchLevel.NO_MATCH:
            return list(self._containers.values())
        if level is MatchLevel.L3:
            bucket = self._idx_l3.get(f)
        elif level is MatchLevel.L2:
            bucket = self._idx_l2.get(f[:2])
        else:
            bucket = self._idx_l1.get(f[0])
        return list(bucket.values()) if bucket else []

    def match_depth_counts(self, image: FunctionImage) -> Tuple[int, int, int, int]:
        """Idle-container counts per exact Table-I level for ``image``.

        Returns ``(n_no_match, n_L1, n_L2, n_L3)`` -- the per-depth idle
        counts the state encoder and schedulers need, straight from the
        index (no scan).
        """
        f = image.fingerprints
        n3 = len(self._idx_l3.get(f, ()))
        n23 = len(self._idx_l2.get(f[:2], ()))
        n123 = len(self._idx_l1.get(f[0], ()))
        return (len(self._containers) - n123, n123 - n23, n23 - n3, n3)

    def best_match(
        self, image: FunctionImage
    ) -> Tuple[Optional[Container], MatchLevel]:
        """Deepest-matching idle container for ``image`` via the index.

        The first container in the order deepest level first, then
        greatest ``(last_used_at, container_id)`` (most recently used).
        Cost is three dict lookups plus a max() over the deepest bucket
        only.
        """
        f = image.fingerprints
        bucket = self._idx_l3.get(f)
        if bucket:
            return max(bucket.values(), key=_mru_key), MatchLevel.L3
        bucket = self._idx_l2.get(f[:2])
        if bucket:
            return max(bucket.values(), key=_mru_key), MatchLevel.L2
        bucket = self._idx_l1.get(f[0])
        if bucket:
            return max(bucket.values(), key=_mru_key), MatchLevel.L1
        return None, MatchLevel.NO_MATCH

    def best_exact(self, image: FunctionImage) -> Optional[Container]:
        """Most-recently-used exact (L3) match for ``image``, or None.

        Equivalent to ``PoolSet.exact_matches(image)[0]`` on a single
        shard -- the bucket max under ``(last_used_at, container_id)`` is
        the head of the MRU-sorted candidate list -- without building or
        sorting the list: the exact-match rule's (LRU, KeepAlive,
        FaasCache) lookup.
        """
        bucket = self._idx_l3.get(image.fingerprints)
        if not bucket:
            return None
        return max(bucket.values(), key=_mru_key)

    def exact_matches(self, image: FunctionImage) -> List[Container]:
        """Idle containers fully (L3) matching ``image``, MRU first.

        Single-shard equivalent of :meth:`PoolSet.exact_matches`, so a
        lane can hand the schedulers' rules its ``WarmPool`` in place of a
        set.
        """
        bucket = self._idx_l3.get(image.fingerprints)
        if not bucket:
            return []
        matches = list(bucket.values())
        matches.sort(key=_mru_key, reverse=True)
        return matches

    def best_at_level(
        self, image: FunctionImage, level: MatchLevel
    ) -> Optional[Container]:
        """Most-recently-used container matching ``image`` at *exactly*
        ``level`` (no deeper), or None.

        The container with the greatest ``(last_used_at, container_id)``
        among those at that level.  Containers at exactly L2 are the
        L2-prefix bucket minus the L3 bucket; exactly L1 is the L1 bucket
        minus the L2 bucket (which contains the L3 one).  This is
        Offline-Q's level-targeted pick.
        """
        f = image.fingerprints
        if level is MatchLevel.L3:
            bucket = self._idx_l3.get(f)
            if not bucket:
                return None
            return max(bucket.values(), key=_mru_key)
        if level is MatchLevel.L2:
            bucket = self._idx_l2.get(f[:2])
            deeper = self._idx_l3.get(f)
        elif level is MatchLevel.L1:
            bucket = self._idx_l1.get(f[0])
            deeper = self._idx_l2.get(f[:2])
        else:
            raise ValueError("best_at_level requires a reusable match level")
        if not bucket:
            return None
        if deeper:
            candidates = [c for cid, c in bucket.items() if cid not in deeper]
            if not candidates:
                return None
            return max(candidates, key=_mru_key)
        return max(bucket.values(), key=_mru_key)

    def expire_older_than(self, threshold: float) -> List[Container]:
        """Pop and return LRU-head containers with ``last_used_at < threshold``.

        Under a fixed TTL, insertion order (the simulator never reorders
        without re-claiming) implies idle-time order, so only the
        actually-expired heads are inspected -- O(expired + 1) per call
        instead of an O(pool) scan per event.
        """
        expired: List[Container] = []
        while self._containers:
            head = next(iter(self._containers.values()))
            if head.last_used_at >= threshold:
                break
            expired.append(self.remove(head.container_id))
        return expired


class PoolSet:
    """One warm pool per worker (the paper's per-worker reserved memory).

    The scheduler sees the union of all idle containers, but capacity is
    enforced per shard: a container is pooled on the worker that hosts it,
    and eviction policies operate on that worker's shard only.  With
    ``n_shards=1`` this degenerates to the single global pool.

    Match-index queries (:meth:`best_match`, :meth:`best_exact`,
    :meth:`best_at_level`, :meth:`match_candidates`,
    :meth:`match_depth_counts`, :meth:`exact_matches`) merge the per-shard
    indexes, so a :class:`WarmPool` and a ``PoolSet`` answer every query
    the schedulers' ``decide_pool`` rules make the same way.
    """

    def __init__(self, capacity_mb: float, n_shards: int = 1) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be >= 0")
        self.n_shards = n_shards
        per_shard = capacity_mb / n_shards
        self._shards = [WarmPool(per_shard) for _ in range(n_shards)]
        self._shard_of: dict[int, int] = {}

    # -- shard access ---------------------------------------------------------
    def shard(self, index: int) -> WarmPool:
        """The shard at ``index`` (wrapping)."""
        return self._shards[index % self.n_shards]

    def shard_of(self, container_id: int) -> WarmPool:
        """The shard currently holding ``container_id``."""
        return self._shards[self._shard_of[container_id]]

    # -- aggregate capacity ----------------------------------------------------
    @property
    def capacity_mb(self) -> float:
        """Total capacity across shards."""
        return sum(s.capacity_mb for s in self._shards)

    @property
    def used_mb(self) -> float:
        """Memory consumed by idle containers across shards."""
        return sum(s.used_mb for s in self._shards)

    @property
    def free_mb(self) -> float:
        """Remaining capacity across shards."""
        return self.capacity_mb - self.used_mb

    # -- membership -------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._shard_of

    def get(self, container_id: int) -> Optional[Container]:
        """Look up by id; returns None when absent."""
        index = self._shard_of.get(container_id)
        if index is None:
            return None
        return self._shards[index].get(container_id)

    def containers(self) -> List[Container]:
        """All idle containers, least-recently-used first."""
        return self.lru_order()

    def lru_order(self) -> List[Container]:
        """All idle containers, least-recently-used first (merged)."""
        if self.n_shards == 1:
            merged = self._shards[0].lru_order()
        else:
            merged = []
            for s in self._shards:
                merged.extend(s.lru_order())
        merged.sort(key=lambda c: (c.last_used_at, c.container_id))
        return merged

    # -- match index ------------------------------------------------------------
    def best_match(
        self, image: FunctionImage
    ) -> Tuple[Optional[Container], MatchLevel]:
        """Deepest-matching idle container across all shards.

        Ties at the deepest level break most-recently-used first (greatest
        ``(last_used_at, container_id)``), matching the LRU-scan semantics.
        """
        if self.n_shards == 1:
            return self._shards[0].best_match(image)
        best_container: Optional[Container] = None
        best_level = MatchLevel.NO_MATCH
        for shard in self._shards:
            container, level = shard.best_match(image)
            if container is None:
                continue
            if level > best_level or (
                level == best_level
                and best_container is not None
                and _mru_key(container) > _mru_key(best_container)
            ):
                best_container, best_level = container, level
        return best_container, best_level

    def best_exact(self, image: FunctionImage) -> Optional[Container]:
        """Most-recently-used exact (L3) match across all shards, or None."""
        if self.n_shards == 1:
            return self._shards[0].best_exact(image)
        return _most_recent(s.best_exact(image) for s in self._shards)

    def best_at_level(
        self, image: FunctionImage, level: MatchLevel
    ) -> Optional[Container]:
        """Most-recently-used container matching ``image`` at exactly
        ``level`` across all shards, or None."""
        if self.n_shards == 1:
            return self._shards[0].best_at_level(image, level)
        return _most_recent(
            s.best_at_level(image, level) for s in self._shards
        )

    def match_candidates(
        self, image: FunctionImage, level: MatchLevel
    ) -> List[Container]:
        """Idle containers matching ``image`` at least at ``level``, shard
        by shard (each shard oldest first)."""
        if self.n_shards == 1:
            return self._shards[0].match_candidates(image, level)
        merged: List[Container] = []
        for shard in self._shards:
            merged.extend(shard.match_candidates(image, level))
        return merged

    def match_depth_counts(self, image: FunctionImage) -> Tuple[int, int, int, int]:
        """Per-level idle counts ``(n_no_match, n_L1, n_L2, n_L3)``, summed."""
        if self.n_shards == 1:
            return self._shards[0].match_depth_counts(image)
        totals = [0, 0, 0, 0]
        for shard in self._shards:
            counts = shard.match_depth_counts(image)
            for i in range(4):
                totals[i] += counts[i]
        return tuple(totals)

    def exact_matches(self, image: FunctionImage) -> List[Container]:
        """Idle containers fully (L3) matching ``image``, MRU first."""
        matches = self.match_candidates(image, MatchLevel.L3)
        matches.sort(key=_mru_key, reverse=True)
        return matches

    # -- mutation ---------------------------------------------------------------
    def add(self, container: Container, shard_index: int) -> None:
        """Pool ``container`` on its worker's shard."""
        shard = self._shards[shard_index % self.n_shards]
        shard.add(container)
        self._shard_of[container.container_id] = shard_index % self.n_shards

    def remove(self, container_id: int) -> Container:
        """Remove and return a pooled container from its shard."""
        index = self._shard_of.pop(container_id, None)
        if index is None:
            raise KeyError(f"container {container_id} not pooled")
        return self._shards[index].remove(container_id)

    def expire_older_than(self, threshold: float) -> List[Container]:
        """Pop all containers idle since before ``threshold``, LRU-heads only."""
        expired: List[Container] = []
        for shard in self._shards:
            for container in shard.expire_older_than(threshold):
                self._shard_of.pop(container.container_id, None)
                expired.append(container)
        return expired
