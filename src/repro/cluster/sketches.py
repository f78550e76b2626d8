"""Bounded-memory quantile sketches for streaming telemetry.

A DDSketch-style log-bucketed quantile sketch (Masson, Rim & Lee, VLDB'19):
values land in geometrically-spaced buckets ``gamma^k`` with
``gamma = (1 + a) / (1 - a)``, which guarantees every quantile estimate is
within relative error ``a`` of a true sample value.  Memory is
O(log(max/min) / log(gamma)) buckets regardless of how many values are
inserted -- for startup latencies spanning 1 ms .. 1000 s at 1% accuracy
that is a few hundred integer counters, which is what lets
:class:`~repro.cluster.telemetry.BoundedTelemetry` summarize a
10M-invocation streaming replay in O(1) space.

The sketch is fully deterministic (no sampling), insertion-order
independent, and mergeable, so per-shard sketches from parallel experiment
workers could be combined without widening the error bound.
"""

from __future__ import annotations

import math
from typing import Dict

__all__ = ["QuantileSketch"]


class QuantileSketch:
    """Relative-error streaming quantile sketch over non-negative values.

    Parameters
    ----------
    relative_accuracy:
        Guaranteed bound ``a`` on the relative error of every quantile
        estimate: for any ``q``, ``|quantile(q) - x| <= a * x`` where ``x``
        is the true sample order statistic.  Default 1%.
    """

    def __init__(self, relative_accuracy: float = 0.01) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> count; bucket ``k`` covers ``(gamma^(k-1), gamma^k]``.
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- ingestion -----------------------------------------------------------
    def insert(self, value: float) -> None:
        """Add one value (must be >= 0; telemetry latencies always are)."""
        if value < 0:
            raise ValueError("QuantileSketch only accepts non-negative values")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value == 0.0:
            self._zero_count += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (same accuracy required)."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError("cannot merge sketches of different accuracy")
        for key, n in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + n
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # -- queries -------------------------------------------------------------
    @property
    def count(self) -> int:
        """How many values were inserted."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact running sum of inserted values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean of inserted values (0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Exact minimum (0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Exact maximum (0 when empty)."""
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``).

        Within ``relative_accuracy`` of the true order statistic; exact at
        the extremes (``q=0`` -> min, ``q=1`` -> max) and for zeros.
        Returns 0 for an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self._count - 1)
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        gamma = self._gamma
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen > rank:
                # Midpoint of (gamma^(key-1), gamma^key]: relative error
                # against any value in the bucket is <= relative_accuracy.
                estimate = 2.0 * gamma ** key / (gamma + 1.0)
                # Clamp into the exact observed range so estimates never
                # stray outside [min, max] on sparse tails.
                return min(max(estimate, self._min), self._max)
        return self.max  # pragma: no cover - rank < count by construction

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (``0 <= p <= 100``)."""
        return self.quantile(p / 100.0)
