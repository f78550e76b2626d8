"""KeepAlive: the public-cloud default warm-start mechanism.

Finished containers are kept warm for a fixed TTL (10 minutes in the paper).
Reuse only happens when a warm container has *exactly* the invoked function's
configuration (an L3 full match).  When the pool is full, keep-warm requests
of newly finished containers are simply rejected.
"""

from __future__ import annotations

from repro.cluster.eviction import RejectNewcomerEviction
from repro.schedulers.base import ExactMatchScheduler


class KeepAliveScheduler(ExactMatchScheduler):
    """Exact-match reuse with TTL keep-alive and reject-when-full."""

    name = "KeepAlive"

    def __init__(self, ttl_s: float = 600.0) -> None:
        self.ttl_s = ttl_s

    def make_eviction_policy(self) -> RejectNewcomerEviction:
        """The eviction policy this scheduler is designed to pair with."""
        return RejectNewcomerEviction(ttl_s=self.ttl_s)
