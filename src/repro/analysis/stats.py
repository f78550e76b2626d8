"""Statistics helpers for the experiment reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used for the paper's box charts (Fig. 11)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute the five-number summary (plus mean) of ``values``."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("box_stats needs at least one value")
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return BoxStats(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )


def mean_confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> Tuple[float, float]:
    """Normal-approximation mean +/- half-width confidence interval."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    half = float(z * arr.std(ddof=1) / np.sqrt(arr.size))
    return mean, half


def reduction_pct(baseline: float, improved: float) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``.

    Positive = improvement (the paper's "MLCR reduces latency by X %").
    """
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - improved) / baseline
