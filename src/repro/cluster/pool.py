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
dictionary lookups instead of linear scans over the pool.  The ``(f1, f2)``
key is the image's cached ``l2_key``, so no operation slices a key.  The
index is keyed by the image a container had when it was added (kept per
container id), so removal stays correct even if a caller mutates a pooled
container's image -- re-adding after a repack re-keys it.

Every bucket iterates in ascending ``(last_used_at, container_id)`` order
(most recently used last), so an MRU pick reads the bucket's tail instead
of scanning it.  The pool remembers the greatest key it has ever indexed:
an add at or above it appends to its three buckets, which keeps them
sorted because a pooled container's key never changes (both engines
re-stamp ``last_used_at`` only on containers taken out of the pool, and
re-add them).  Any other add -- a hand-built pool, or a same-time
completion with a lower id -- re-sorts just its three buckets, so the
order holds for any insertion order.  Removal keeps the order (dicts
delete in place).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.containers.container import Container, ContainerState
from repro.containers.image import FunctionImage
from repro.containers.matching import MatchLevel

# Aliases: an enum member read off its class costs a descriptor call.
_IDLE = ContainerState.IDLE
_NO_MATCH, _L1, _L2, _L3 = (
    MatchLevel.NO_MATCH, MatchLevel.L1, MatchLevel.L2, MatchLevel.L3)


class PoolFullError(RuntimeError):
    """Raised when adding a container would exceed the pool capacity."""


def _mru_key(container: Container) -> Tuple[float, int]:
    """Recency sort key: greater means more recently used."""
    return (container.last_used_at, container.container_id)


def _resort(bucket: Dict[int, Container]) -> None:
    """Restore ascending ``(last_used_at, container_id)`` order in place."""
    items = sorted(bucket.items(), key=lambda item: _mru_key(item[1]))
    bucket.clear()
    bucket.update(items)


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

    __slots__ = ("capacity_mb", "_containers", "_used_mb", "peak_used_mb",
                 "_idx_l1", "_idx_l2", "_idx_l3", "_index_keys", "_newest_key")

    def __init__(self, capacity_mb: float) -> None:
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be >= 0")
        self.capacity_mb = capacity_mb
        self._containers: "OrderedDict[int, Container]" = OrderedDict()
        self._used_mb = 0.0
        self.peak_used_mb = 0.0
        # Match index: fingerprint prefix -> {container_id: Container},
        # each bucket in ascending (last_used_at, container_id) order.
        self._idx_l1: Dict[int, Dict[int, Container]] = {}
        self._idx_l2: Dict[Tuple[int, int], Dict[int, Container]] = {}
        self._idx_l3: Dict[Tuple[int, int, int], Dict[int, Container]] = {}
        # The image each pooled container was indexed under.
        self._index_keys: Dict[int, FunctionImage] = {}
        # Greatest (last_used_at, container_id) ever indexed: an add at or
        # above it keeps every bucket sorted by appending.
        self._newest_key: Tuple[float, int] = (float("-inf"), -1)

    # -- capacity -----------------------------------------------------------
    @property
    def used_mb(self) -> float:
        """Memory currently consumed by idle warm containers."""
        return self._used_mb

    @property
    def free_mb(self) -> float:
        """Remaining warm-pool capacity."""
        return self.capacity_mb - self._used_mb

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
    def add(self, container: Container, shard_index: int = 0) -> None:
        """Insert an idle container as most-recently-used.

        ``shard_index`` is ignored: a warm pool is a single shard, and the
        argument lets a one-shard :class:`PoolSet` use this method as its
        own ``add``.

        Raises
        ------
        PoolFullError
            When the container does not fit; callers evict first.
        ValueError
            When the container is not idle or already present.
        """
        cid = container.container_id
        if container.state is not _IDLE:
            raise ValueError(
                f"container {cid} is {container.state.value}, "
                "only idle containers can be pooled"
            )
        if cid in self._containers:
            raise ValueError(f"container {cid} already pooled")
        image = container.image
        memory_mb = image.memory_mb
        # Must fit in free_mb; a NaN size does not.
        if not memory_mb <= self.capacity_mb - self._used_mb:
            raise PoolFullError(
                f"container {cid} ({memory_mb:.0f}MB) exceeds free "
                f"capacity ({self.free_mb:.0f}MB)"
            )
        self._containers[cid] = container
        self._used_mb += memory_mb
        if self._used_mb > self.peak_used_mb:
            self.peak_used_mb = self._used_mb
        # get-then-insert: setdefault would build a throwaway {} per call.
        fps = image.fingerprints
        b1 = self._idx_l1.get(fps[0])
        if b1 is None:
            b1 = self._idx_l1[fps[0]] = {}
        b2 = self._idx_l2.get(image.l2_key)
        if b2 is None:
            b2 = self._idx_l2[image.l2_key] = {}
        b3 = self._idx_l3.get(fps)
        if b3 is None:
            b3 = self._idx_l3[fps] = {}
        b1[cid] = b2[cid] = b3[cid] = container
        self._index_keys[cid] = image
        key = (container.last_used_at, cid)
        if key >= self._newest_key:
            self._newest_key = key
        else:
            _resort(b1)
            _resort(b2)
            _resort(b3)

    def remove(self, container_id: int) -> Container:
        """Remove and return a pooled container (claimed or evicted)."""
        container = self._containers.pop(container_id, None)
        if container is None:
            raise KeyError(f"container {container_id} not in pool")
        self._used_mb -= container.image.memory_mb
        # Guard against float drift accumulating below zero.
        if self._used_mb < 1e-9:
            self._used_mb = 0.0
        # The three index levels, unrolled: no key or pair tuples.
        image = self._index_keys.pop(container_id)
        fps = image.fingerprints
        bucket = self._idx_l1[fps[0]]
        del bucket[container_id]
        if not bucket:
            del self._idx_l1[fps[0]]
        bucket = self._idx_l2[image.l2_key]
        del bucket[container_id]
        if not bucket:
            del self._idx_l2[image.l2_key]
        bucket = self._idx_l3[fps]
        del bucket[container_id]
        if not bucket:
            del self._idx_l3[fps]
        return container

    def touch(self, container_id: int) -> None:
        """Mark a container most-recently-used (moves it to the LRU tail)."""
        if container_id not in self._containers:
            raise KeyError(f"container {container_id} not in pool")
        self._containers.move_to_end(container_id)

    def lru_order(self) -> List[Container]:
        """Containers least-recently-used first (eviction candidates)."""
        return list(self._containers.values())

    # -- match index --------------------------------------------------------
    def match_candidates(
        self, image: FunctionImage, level: MatchLevel
    ) -> List[Container]:
        """Idle containers matching ``image`` at least at ``level``.

        Returned least recently used first (ascending
        ``(last_used_at, container_id)``); ``NO_MATCH`` returns every
        pooled container in pool (LRU) order.
        """
        f = image.fingerprints
        if level is _NO_MATCH:
            return list(self._containers.values())
        if level is _L3:
            bucket = self._idx_l3.get(f)
        elif level is _L2:
            bucket = self._idx_l2.get(image.l2_key)
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
        n23 = len(self._idx_l2.get(image.l2_key, ()))
        n123 = len(self._idx_l1.get(f[0], ()))
        return (len(self._containers) - n123, n123 - n23, n23 - n3, n3)

    def best_match(
        self, image: FunctionImage
    ) -> Tuple[Optional[Container], MatchLevel]:
        """Deepest-matching idle container for ``image`` via the index.

        The first container in the order deepest level first, then
        greatest ``(last_used_at, container_id)`` (most recently used).
        Cost is at most three dict lookups plus the deepest non-empty
        bucket's tail.
        """
        f = image.fingerprints
        bucket = self._idx_l3.get(f)
        if bucket:
            return next(reversed(bucket.values())), _L3
        bucket = self._idx_l2.get(image.l2_key)
        if bucket:
            return next(reversed(bucket.values())), _L2
        bucket = self._idx_l1.get(f[0])
        if bucket:
            return next(reversed(bucket.values())), _L1
        return None, _NO_MATCH

    def best_exact(self, image: FunctionImage) -> Optional[Container]:
        """Most-recently-used exact (L3) match for ``image``, or None.

        Equivalent to ``PoolSet.exact_matches(image)[0]`` on a single
        shard -- the L3 bucket's tail -- without building the list: the
        exact-match rule's (LRU, KeepAlive, FaasCache) lookup.
        """
        bucket = self._idx_l3.get(image.fingerprints)
        if not bucket:
            return None
        return next(reversed(bucket.values()))

    def exact_matches(self, image: FunctionImage) -> List[Container]:
        """Idle containers fully (L3) matching ``image``, MRU first.

        Single-shard equivalent of :meth:`PoolSet.exact_matches`, so a
        lane can hand the schedulers' rules its ``WarmPool`` in place of a
        set.
        """
        bucket = self._idx_l3.get(image.fingerprints)
        if not bucket:
            return []
        return list(reversed(bucket.values()))

    def best_at_level(
        self, image: FunctionImage, level: MatchLevel
    ) -> Optional[Container]:
        """Most-recently-used container matching ``image`` at *exactly*
        ``level`` (no deeper), or None.

        The container with the greatest ``(last_used_at, container_id)``
        among those at that level.  Containers at exactly L2 are the
        L2-prefix bucket minus the L3 bucket; exactly L1 is the L1 bucket
        minus the L2 bucket (which contains the L3 one), so the pick is
        the last id of the bucket that the deeper bucket lacks.  This is
        Offline-Q's level-targeted pick.
        """
        f = image.fingerprints
        if level is _L3:
            bucket = self._idx_l3.get(f)
            if not bucket:
                return None
            return next(reversed(bucket.values()))
        if level is _L2:
            bucket = self._idx_l2.get(image.l2_key)
            deeper = self._idx_l3.get(f)
        elif level is _L1:
            bucket = self._idx_l1.get(f[0])
            deeper = self._idx_l2.get(image.l2_key)
        else:
            raise ValueError("best_at_level requires a reusable match level")
        if not bucket:
            return None
        if not deeper:
            return next(reversed(bucket.values()))
        for cid, container in reversed(bucket.items()):
            if cid not in deeper:
                return container
        return None

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
    the schedulers' ``decide`` rules make the same way.  With one
    shard, :meth:`get`, :meth:`add`, :meth:`remove`,
    :meth:`expire_older_than` and those queries are the shard's own bound
    methods, so an operation costs no merge and no extra call, and no
    shard map is kept (membership is the shard's).
    """

    def __init__(self, capacity_mb: float, n_shards: int = 1) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be >= 0")
        self.n_shards = n_shards
        per_shard = capacity_mb / n_shards
        self._shards = [WarmPool(per_shard) for _ in range(n_shards)]
        # Container id -> shard index; kept with more than one shard only.
        self._shard_of: dict[int, int] = {}
        if n_shards == 1:
            only = self._shards[0]
            self.get = only.get
            self.add = only.add
            self.remove = only.remove
            self.expire_older_than = only.expire_older_than
            self.best_match = only.best_match
            self.best_exact = only.best_exact
            self.best_at_level = only.best_at_level
            self.match_candidates = only.match_candidates
            self.match_depth_counts = only.match_depth_counts
            self.exact_matches = only.exact_matches

    # -- shard access ---------------------------------------------------------
    def shard(self, index: int) -> WarmPool:
        """The shard at ``index`` (wrapping)."""
        return self._shards[index % self.n_shards]

    def shard_of(self, container_id: int) -> WarmPool:
        """The shard currently holding ``container_id`` (``KeyError`` when
        it is not pooled)."""
        if self.n_shards == 1:
            if container_id not in self._shards[0]:
                raise KeyError(container_id)
            return self._shards[0]
        return self._shards[self._shard_of[container_id]]

    # -- aggregate capacity ----------------------------------------------------
    @property
    def capacity_mb(self) -> float:
        """Total capacity across shards."""
        return sum(s.capacity_mb for s in self._shards)

    @property
    def used_mb(self) -> float:
        """Memory consumed by idle containers across shards."""
        if self.n_shards == 1:
            return self._shards[0].used_mb
        return sum(s.used_mb for s in self._shards)

    @property
    def free_mb(self) -> float:
        """Remaining capacity across shards."""
        return self.capacity_mb - self.used_mb

    # -- membership -------------------------------------------------------------
    def __len__(self) -> int:
        if self.n_shards == 1:
            return len(self._shards[0])
        return len(self._shard_of)

    def __contains__(self, container_id: int) -> bool:
        if self.n_shards == 1:
            return container_id in self._shards[0]
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
        best_container: Optional[Container] = None
        best_level = _NO_MATCH
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
        return _most_recent(s.best_exact(image) for s in self._shards)

    def best_at_level(
        self, image: FunctionImage, level: MatchLevel
    ) -> Optional[Container]:
        """Most-recently-used container matching ``image`` at exactly
        ``level`` across all shards, or None."""
        return _most_recent(
            s.best_at_level(image, level) for s in self._shards
        )

    def match_candidates(
        self, image: FunctionImage, level: MatchLevel
    ) -> List[Container]:
        """Idle containers matching ``image`` at least at ``level``, shard
        by shard (each shard oldest first)."""
        merged: List[Container] = []
        for shard in self._shards:
            merged.extend(shard.match_candidates(image, level))
        return merged

    def match_depth_counts(self, image: FunctionImage) -> Tuple[int, int, int, int]:
        """Per-level idle counts ``(n_no_match, n_L1, n_L2, n_L3)``, summed."""
        totals = [0, 0, 0, 0]
        for shard in self._shards:
            counts = shard.match_depth_counts(image)
            for i in range(4):
                totals[i] += counts[i]
        return tuple(totals)

    def exact_matches(self, image: FunctionImage) -> List[Container]:
        """Idle containers fully (L3) matching ``image``, MRU first."""
        matches = self.match_candidates(image, _L3)
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
