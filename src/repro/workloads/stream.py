"""Lazy invocation streams: arrival pipelines with bounded memory.

A :class:`Workload` materializes every :class:`Invocation` up front, which
caps trace replay at a few hundred thousand invocations (O(N) objects plus
seconds of generation).  An :class:`InvocationStream` is the lazy
counterpart: an arrival-ordered *iterable* of invocations that synthesizes
events on demand, so replaying a million-invocation trace holds only

* one chunk source (plus its pending arrival chunk) per function,
* the arrivals of one merge window, and
* the single invocation currently in flight.

The central primitive is :func:`merge_function_chunks`: a window merge of
per-function arrival chunks.  Each source yields ``(times, exec_times)``
numpy array pairs in non-decreasing time order; the merge cuts time into
windows, sorts each window's arrivals once with the deterministic
tie-break ``(arrival_time, function_index)`` and assigns invocation ids
in merged arrival order -- exactly the ids :func:`materialize` would
produce, so streaming and materialized replay are equivalent by
construction (the ``streaming_vs_materialized`` differential oracle holds
them to it, and to a straight-line concatenate-and-sort reference).

:class:`StreamStatistics` is the online accumulator behind single-pass
``trace_statistics``: per-function invocation counts, O(#functions)
state however long the stream runs.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.workloads.functions import FunctionSpec
from repro.workloads.workload import Invocation, Workload

#: One per-function arrival chunk: ``(arrival_times, exec_times_s)``, two
#: equal-length float arrays with non-decreasing times.
ArrivalChunk = Tuple[np.ndarray, np.ndarray]


class InvocationStream:
    """Base class / protocol for lazy arrival-ordered invocation sources.

    Subclasses implement :meth:`__iter__` to yield :class:`Invocation`
    objects with non-decreasing ``arrival_time`` and sequential
    ``invocation_id`` (0, 1, 2, ...).  Iteration must be *restartable*:
    every ``__iter__`` call starts a fresh, identical pass (streams are
    deterministic functions of their construction arguments), which is what
    lets differential oracles replay the same stream twice.

    ``name`` labels the run (mirrors :attr:`Workload.name`); ``metadata``
    carries cheap stream-level statistics (never per-invocation data).
    """

    name: str = "<stream>"

    def __init__(self) -> None:
        self.metadata: Dict[str, float] = {}

    def __iter__(self) -> Iterator[Invocation]:
        raise NotImplementedError

    def materialize(self, metadata: Dict[str, float] | None = None) -> Workload:
        """Exhaust the stream into a :class:`Workload` (O(N) memory)."""
        return Workload(
            name=self.name,
            invocations=tuple(self),
            metadata=dict(metadata if metadata is not None else self.metadata),
        )


class WorkloadStream(InvocationStream):
    """A materialized workload viewed through the stream protocol.

    The adapter that lets every existing :class:`Workload` drive the
    streaming feed path (``ClusterSimulator.run_stream``); it holds a
    reference to the workload, not a copy.
    """

    def __init__(self, workload: Workload) -> None:
        super().__init__()
        self.workload = workload
        self.name = workload.name
        self.metadata = dict(workload.metadata)

    def __iter__(self) -> Iterator[Invocation]:
        return iter(self.workload)

    def __len__(self) -> int:
        return len(self.workload)


def stream_from_workload(workload: Workload) -> WorkloadStream:
    """Wrap a materialized workload as an :class:`InvocationStream`."""
    return WorkloadStream(workload)


def merge_function_chunks(
    specs: Sequence[FunctionSpec],
    sources: Sequence[Iterable[ArrivalChunk]],
    window_ends: Sequence[float],
) -> Iterator[Invocation]:
    """Merge per-function arrival chunks into one ordered stream.

    ``sources[i]`` yields ``specs[i]``'s ``(times, exec_times_s)`` chunks,
    times non-decreasing within and across chunks.  The merged stream is
    ordered by ``(arrival_time, function_index)`` -- the function index
    breaks time ties deterministically, and a function's own arrivals keep
    their order -- and invocation ids are assigned in merged order,
    matching what :meth:`Workload.from_invocations` produces from the same
    per-function arrivals.

    Time is cut into windows at the increasing ``window_ends``; the last
    window is open-ended.  A heap keeps each live source's *frontier*
    (the last time it has yielded).  Before window ``w`` is emitted, every
    source whose frontier lies below the window's end is pulled, so every
    arrival of the window is in hand; each pulled chunk is binned into
    its windows with one ``searchsorted``, and a window is ordered by one
    stable ``lexsort``.  Memory is O(#functions + window + chunk),
    independent of the stream's length.

    A source that goes back in time, within a chunk or across chunks,
    raises :class:`ValueError`; each :class:`Invocation` validates its own
    fields.
    """
    if len(specs) != len(sources):
        raise ValueError("specs and sources must align")
    ends = [float(end) for end in window_ends]
    if any(b <= a for a, b in zip(ends, ends[1:])):
        raise ValueError("window_ends must increase")
    spec_table = np.empty(len(specs), dtype=object)
    for index, spec in enumerate(specs):
        spec_table[index] = spec
    sources = [iter(source) for source in sources]
    # ``(frontier, index)`` per live source; -inf: nothing pulled yet.
    frontiers = [(-math.inf, index) for index in range(len(sources))]
    buckets: List[List[Tuple[int, np.ndarray, np.ndarray]]] = [
        [] for _ in range(len(ends) + 1)
    ]
    next_id = 0
    for window, end in enumerate([*ends, math.inf]):
        while frontiers and frontiers[0][0] < end:
            frontier, index = frontiers[0]
            chunk = next(sources[index], None)
            if chunk is None:
                heapq.heappop(frontiers)
                continue
            times, execs = chunk
            if not times.size:
                continue
            first = float(times[0])
            last = float(times[-1])
            if first < frontier or (times[1:] < times[:-1]).any():
                raise ValueError(
                    f"function {index} yielded arrivals out of order "
                    f"(chunk [{first}, {last}] after {frontier})"
                )
            # Arrivals at or past a window's end belong to a later window.
            lo = bisect_right(ends, first)
            hi = bisect_right(ends, last)
            if lo == hi:
                buckets[lo].append((index, times, execs))
            else:
                cuts = np.searchsorted(times, ends[lo:hi]).tolist()
                start = 0
                for offset, cut in enumerate(cuts):
                    if cut > start:
                        buckets[lo + offset].append(
                            (index, times[start:cut], execs[start:cut])
                        )
                        start = cut
                buckets[hi].append((index, times[start:], execs[start:]))
            heapq.heapreplace(frontiers, (last, index))
        bucket = buckets[window]
        buckets[window] = []
        if not bucket:
            continue
        times = np.concatenate([part[1] for part in bucket])
        owners = np.repeat([part[0] for part in bucket],
                           [part[1].size for part in bucket])
        order = np.lexsort((owners, times))
        execs = np.concatenate([part[2] for part in bucket])[order]
        count = times.size
        yield from map(
            Invocation,
            range(next_id, next_id + count),
            spec_table[owners[order]].tolist(),
            times[order].tolist(),
            execs.tolist(),
        )
        next_id += count


class StreamStatistics:
    """Online accumulator for trace statistics (O(#functions) state).

    Feed invocations with :meth:`observe` (or a whole iterable with
    :meth:`consume`); read the same keys
    :meth:`AzureTraceGenerator.trace_statistics` reports, computed without
    ever materializing the trace.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def observe(self, invocation: Invocation) -> None:
        """Fold one invocation."""
        name = invocation.spec.name
        self.counts[name] = self.counts.get(name, 0) + 1

    def consume(self, stream: Iterable[Invocation]) -> "StreamStatistics":
        """Fold every invocation of ``stream``; returns ``self``."""
        for invocation in stream:
            self.observe(invocation)
        return self

    def statistics(self) -> Dict[str, float]:
        """The cited Azure aggregates over what has been observed so far."""
        return statistics_from_counts(self.counts.values())


def statistics_from_counts(counts: Iterable[int]) -> Dict[str, float]:
    """Azure trace aggregates from per-function invocation counts."""
    n_functions = 0
    once = 0
    le2 = 0
    peak = 0
    for count in counts:
        n_functions += 1
        if count == 1:
            once += 1
        if count <= 2:
            le2 += 1
        if count > peak:
            peak = count
    if not n_functions:
        return {
            "frac_invoked_once": 0.0,
            "frac_invoked_le2": 0.0,
            "max_invocations": 0.0,
        }
    return {
        "frac_invoked_once": once / n_functions,
        "frac_invoked_le2": le2 / n_functions,
        "max_invocations": float(peak),
    }
