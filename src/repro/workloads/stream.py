"""Lazy invocation streams: arrival pipelines with O(#functions) memory.

A :class:`Workload` materializes every :class:`Invocation` up front, which
caps trace replay at a few hundred thousand invocations (O(N) objects plus
seconds of generation).  An :class:`InvocationStream` is the lazy
counterpart: an arrival-ordered *iterable* of invocations that synthesizes
events on demand, so replaying a million-invocation trace holds only

* one generator (plus one pending arrival chunk) per function, and
* the single invocation currently in flight.

The central primitive is :func:`merge_function_arrivals`: a heap merge of
per-function arrival generators.  Each generator yields
``(arrival_time, execution_time_s)`` pairs in non-decreasing time order;
the merge interleaves them into one globally ordered stream with the
deterministic tie-break ``(arrival_time, function_index)`` and assigns
invocation ids in merged arrival order -- exactly the ids
:func:`materialize` would produce, so streaming and materialized replay
are equivalent by construction (the ``streaming_vs_materialized``
differential oracle holds them to it).

:class:`StreamStatistics` is the online accumulator behind single-pass
``trace_statistics``: per-function invocation counts, O(#functions)
state however long the stream runs.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.workloads.functions import FunctionSpec
from repro.workloads.workload import Invocation, Workload

#: A per-function arrival generator item: ``(arrival_time, exec_time_s)``.
ArrivalPair = Tuple[float, float]


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


def merge_function_arrivals(
    specs: Sequence[FunctionSpec],
    sources: Sequence[Iterator[ArrivalPair]],
) -> Iterator[Invocation]:
    """Heap-merge per-function arrival generators into one ordered stream.

    ``sources[i]`` yields ``specs[i]``'s ``(arrival_time, exec_time_s)``
    pairs in non-decreasing time order.  The merged stream is ordered by
    ``(arrival_time, function_index)`` -- the function index breaks time
    ties deterministically -- and invocation ids are assigned in merged
    order, matching what :meth:`Workload.from_invocations` produces from
    the same per-function arrivals.

    Memory is one heap entry (and one buffered pair) per *active* source;
    a source's own buffering is its business -- chunked generators keep it
    O(chunk).
    """
    if len(specs) != len(sources):
        raise ValueError("specs and sources must align")
    heap: List[Tuple[float, int, float, Iterator[ArrivalPair]]] = []
    for index, source in enumerate(sources):
        it = iter(source)
        first = next(it, None)
        if first is not None:
            heap.append((first[0], index, first[1], it))
    heapq.heapify(heap)
    invocation_id = 0
    while heap:
        time, index, exec_s, it = heap[0]
        yield Invocation(
            invocation_id=invocation_id,
            spec=specs[index],
            arrival_time=float(time),
            execution_time_s=float(exec_s),
        )
        invocation_id += 1
        following = next(it, None)
        if following is None:
            heapq.heappop(heap)
        elif following[0] < time:
            raise ValueError(
                f"function {index} yielded arrivals out of order "
                f"({following[0]} after {time})"
            )
        else:
            heapq.heapreplace(heap, (following[0], index, following[1], it))


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
