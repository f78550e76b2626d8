"""LRU baseline: exact-configuration reuse with LRU eviction."""

from __future__ import annotations

from repro.schedulers.base import ExactMatchScheduler


class LRUScheduler(ExactMatchScheduler):
    """Reuse a warm container only on a full configuration match.

    Finished containers are kept in the pool; when the pool is full the
    least-recently-used idle container is evicted to make space (the paper's
    *LRU* comparison).
    """

    name = "LRU"
