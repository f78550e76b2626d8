"""Host-speed calibration for the benchmark's host-time metrics.

On shared virtual machines the speed of a CPU drifts by up to 2x over
seconds to minutes (frequency scaling, other tenants on sibling hardware
threads), and the drift shows in CPU time as much as in wall time.  Such
drift would swamp any regression bound between runs made minutes apart,
so every host time the benchmark reports is *scaled*: a fixed pure-Python
kernel is timed right before and right after each measured unit, and the
unit's time is multiplied by ``NOMINAL_S / kernel time``.  The result is
the unit's time on a host where the kernel takes :data:`NOMINAL_S` --
drift cancels to first order, while a change to the program moves scaled
times exactly as it moves raw ones, because the kernel does not touch the
program.  Raw values are printed next to the scaled ones.

The kernel exercises what the simulator spends its time on: heap pushes
and pops of tuples, dictionary updates and small-object attribute access.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: Kernel time, in seconds, of the host scaled times are expressed on.
NOMINAL_S = 3.0e-4

#: Kernel repetitions per calibration sample (the median is used).
SAMPLES = 5


class _Box:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def kernel_s() -> float:
    """Host seconds one run of the calibration kernel takes."""
    start = time.perf_counter()
    heap = []
    counts = {}
    boxes = [_Box(i) for i in range(64)]
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        box = boxes[i & 63]
        counts[box.value] = counts.get(box.value, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def sample_s() -> float:
    """Median kernel time over :data:`SAMPLES` runs (the local host speed)."""
    return statistics.median(kernel_s() for _ in range(SAMPLES))


class HostSpeed:
    """Host-speed samples taken between the measured units of a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> None:
        """Take one sample (between measured units, never inside one)."""
        self.samples.append(sample_s())

    def factor(self) -> float:
        """Scale factor for the unit between the last two samples."""
        return NOMINAL_S / statistics.mean(self.samples[-2:])
