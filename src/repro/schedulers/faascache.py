"""FaasCache baseline: exact-configuration reuse + greedy-dual eviction.

FaasCache (Fuerst & Sharma, ASPLOS'21) treats keep-alive as caching: the
scheduling side is identical to LRU (reuse only full matches) but eviction
uses a greedy-dual priority combining invocation frequency, observed startup
cost and memory footprint.
"""

from __future__ import annotations

from repro.cluster.eviction import FaasCacheEviction
from repro.schedulers.base import ExactMatchScheduler


class FaasCacheScheduler(ExactMatchScheduler):
    """Exact-match reuse paired with :class:`FaasCacheEviction`."""

    name = "FaasCache"

    @staticmethod
    def make_eviction_policy() -> FaasCacheEviction:
        return FaasCacheEviction()
