"""Open-loop HTTP load generator and the latency statistics it reports.

The ``serve-http`` workload drives the serving plane with independent
users, so the generator is an *open loop*: request ``i`` is due at a
seeded Poisson time regardless of how earlier requests fare, and its
latency is measured from that due time.  A stall on the server therefore
also charges the wait it imposes on every later request.  At most
``max_inflight`` connections are open at once (the host's core count);
a due request that finds them all busy waits, and that wait is part of
its latency.  The generator's own lag -- how late it dispatched a request
past its due time -- is reported separately, so an overloaded generator
is told apart from a slow server.

Timings are summarized as a median plus the highest percentile that still
has at least ten samples beyond it (:func:`tail`), with the sample count.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Sequence, Tuple

#: Samples a reported tail percentile must have beyond it.
MIN_BEYOND = 10

#: Zipf exponent of function popularity: the per-function skew of the
#: repository's Azure-like trace generator (``AzureTraceConfig``'s
#: ``zipf_exponent`` default, fitted to the Azure Functions trace).
ZIPF_S = 1.6

#: Generator lag below which it never counts as growing.
LAG_FLOOR_S = 0.002

#: Head start of a phase's first due time over its dispatch.
START_DELAY_S = 0.05


def tail_percentile(n: int) -> float:
    """Highest percentile with at least :data:`MIN_BEYOND` of ``n``
    samples beyond it, never below the median."""
    if n <= 0:
        raise ValueError("no samples")
    return max(50.0, 100.0 * (n - MIN_BEYOND) / n)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest well-sampled percentile."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def zipf_weights(n: int) -> List[float]:
    """Popularity weight ``1 / rank**ZIPF_S`` of ranks ``1..n``."""
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]


def poisson_schedule(
    rate: float, duration_s: float, seed: int, functions: Sequence[str],
) -> List[Tuple[float, str]]:
    """Seeded open-loop schedule: ``(offset_s, function)`` pairs.

    Inter-arrival gaps are exponential with mean ``1 / rate``; functions
    are drawn Zipf-weighted (:func:`zipf_weights`) in the order
    given, so the seed changes arrival times and draws but not which
    functions are popular.
    """
    rng = random.Random(seed)
    ranked = list(functions)
    weights = zipf_weights(len(ranked))
    schedule: List[Tuple[float, str]] = []
    t = rng.expovariate(rate)
    while t < duration_s:
        schedule.append((t, rng.choices(ranked, weights)[0]))
        t += rng.expovariate(rate)
    return schedule


@dataclass(frozen=True)
class Outcome:
    """One request's timeline (host seconds) and result."""

    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency_s(self) -> float:
        """Latency measured from the due time (open-loop accounting)."""
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How late the generator dispatched the request."""
        return max(0.0, self.sent - self.due)


def lag_grows(outcomes: Sequence[Outcome]) -> bool:
    """Whether generator lag grew over a run: the median lateness of the
    last quarter of requests exceeds both :data:`LAG_FLOOR_S` and twice
    that of the first quarter."""
    n = len(outcomes) // 4
    if n == 0:
        return False
    first = statistics.median(o.late_s for o in outcomes[:n])
    last = statistics.median(o.late_s for o in outcomes[-n:])
    return last > max(LAG_FLOOR_S, 2.0 * first)


async def drive(
    schedule: Sequence[Tuple[float, str]],
    send: Callable[[str], Awaitable[bool]],
    max_inflight: int,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Outcome]:
    """Run ``schedule`` open-loop; ``send(function)`` performs one request
    and returns whether its response was a well-formed success.

    Returns outcomes in schedule order.  ``send`` raising ``OSError`` or
    ``asyncio.TimeoutError`` counts as a failed request.
    """
    gate = asyncio.Semaphore(max_inflight)
    t0 = clock() + START_DELAY_S

    async def one(due: float, sent: float, function: str) -> Outcome:
        async with gate:
            try:
                ok = await send(function)
            except (OSError, asyncio.TimeoutError, ValueError):
                ok = False
        return Outcome(due=due, sent=sent, done=clock(), ok=ok)

    tasks: List[asyncio.Task] = []
    for offset, function in schedule:
        due = t0 + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(due, clock(), function)))
    return list(await asyncio.gather(*tasks))


@dataclass(frozen=True)
class PhaseStats:
    """Summary of one open-loop phase."""

    attempted: int
    failed: int
    p50_ms: float
    tail_p: float
    tail_ms: float
    late_tail_ms: float
    lag_grows: bool

    @staticmethod
    def of(outcomes: Sequence[Outcome]) -> "PhaseStats":
        """Summarize outcomes; failed requests count against every limit."""
        latencies = [o.latency_s * 1e3 for o in outcomes]
        p, value = tail(latencies)
        _, late = tail([o.late_s * 1e3 for o in outcomes])
        return PhaseStats(
            attempted=len(outcomes),
            failed=sum(1 for o in outcomes if not o.ok),
            p50_ms=percentile(latencies, 50.0),
            tail_p=p,
            tail_ms=value,
            late_tail_ms=late,
            lag_grows=lag_grows(outcomes),
        )

    def meets(self, limit_ms: float) -> bool:
        """Whether the phase sustained its rate within ``limit_ms``."""
        return self.failed == 0 and not self.lag_grows and (
            self.tail_ms <= limit_ms
        )
