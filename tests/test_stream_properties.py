"""Property-based tests: streaming replay equivalences and sketch bounds.

The streaming pipeline's correctness story is *equivalence*: a lazy
:class:`InvocationStream` must be indistinguishable from the workload it
replaces, and ``run_stream`` must be indistinguishable from ``run``.
These properties pin that story under randomized inputs:

* window-merged arrival streams are globally ordered with the documented
  ``(arrival_time, function_index)`` tie-break and sequential ids, and
  equal a straight-line concatenate-and-sort of the same chunks for any
  chunking and any window ends (ties across functions, on window ends
  and across chunk boundaries included);
* an out-of-order per-function source (within a chunk or across chunks)
  is rejected, never silently merged, and invalid arrival fields still
  raise;
* ``AzureTraceGenerator.stream`` yields exactly ``generate``'s
  invocations, for any (seed, shape), and equals the straight-line
  reference at the benchmark's 2,000-function shape;
* ``run_stream`` over a workload's stream view reproduces ``run``
  byte-for-byte (summary and all invocation columns);
* :class:`QuantileSketch` estimates stay within the configured relative
  accuracy, and :class:`BoundedTelemetry` matches the exact telemetry on
  every non-percentile summary cell.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator, SimulationConfig
from repro.cluster.sketches import QuantileSketch
from repro.cluster.telemetry import BoundedTelemetry, Telemetry
from repro.experiments.ext_stream_replay import trace_config
from repro.schedulers.greedy import GreedyMatchScheduler
from repro.schedulers.keepalive import KeepAliveScheduler
from repro.schedulers.lru import LRUScheduler
from repro.verify.differential import straight_line_merge
from repro.workloads.azure import AzureTraceConfig, AzureTraceGenerator
from repro.workloads.functions import function_by_id
from repro.workloads.stream import (
    merge_function_chunks,
    stream_from_workload,
)
from repro.workloads.workload import Invocation, Workload

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# Per-function arrival lists: sorted non-negative times with exec times.
arrival_list = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    ),
    min_size=0, max_size=25,
).map(lambda pairs: sorted(pairs, key=lambda p: p[0]))

arrival_lists = st.lists(arrival_list, min_size=1, max_size=6)

window_ends_strategy = st.lists(
    st.integers(min_value=1, max_value=20), max_size=5, unique=True,
).map(lambda ends: [float(end) for end in sorted(ends)])


def _chunked(pairs, cuts):
    """Cut one function's sorted pairs into ``(times, execs)`` chunks at
    the given positions (empty chunks included)."""
    bounds = [0, *sorted(cuts), len(pairs)]
    return [
        (np.array([t for t, _ in pairs[a:b]], dtype=np.float64),
         np.array([e for _, e in pairs[a:b]], dtype=np.float64))
        for a, b in zip(bounds, bounds[1:])
    ]


@st.composite
def chunked_sources(draw):
    """Window ends plus per-function chunk lists with forced ties.

    Times come from a small integer grid (equal times across functions,
    times exactly on a window end) or anywhere in the range; a source may
    end with a chunk whose first time equals the previous chunk's last.
    """
    ends = draw(window_ends_strategy)
    time = st.one_of(
        st.sampled_from([0.0, 25.0, *ends]),
        st.integers(min_value=0, max_value=25).map(float),
        st.floats(min_value=0.0, max_value=25.0,
                  allow_nan=False, allow_infinity=False),
    )
    exec_s = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)
    sources = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        pairs = sorted(draw(st.lists(st.tuples(time, exec_s), max_size=25)),
                       key=lambda p: p[0])
        cuts = draw(st.lists(st.integers(min_value=0, max_value=len(pairs)),
                             max_size=4))
        chunks = _chunked(pairs, cuts)
        if pairs and draw(st.booleans()):
            last = pairs[-1][0]
            chunks.append((np.array([last, last]),
                           np.array([draw(exec_s), draw(exec_s)])))
        sources.append(chunks)
    return ends, sources


invocation_strategy = st.tuples(
    st.sampled_from([1, 2, 4, 5, 6, 10, 11]),
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
)

workload_strategy = st.lists(invocation_strategy, min_size=1, max_size=40)

scheduler_strategy = st.sampled_from([
    LRUScheduler, GreedyMatchScheduler, KeepAliveScheduler,
])


def build_workload(items) -> Workload:
    ordered = sorted(items, key=lambda item: item[1])
    return Workload.from_invocations("prop", [
        Invocation(
            invocation_id=i,
            spec=function_by_id(fid),
            arrival_time=t,
            execution_time_s=e,
        )
        for i, (fid, t, e) in enumerate(ordered)
    ])


def _specs(n: int):
    return [function_by_id(1 + (i % 11) or 1) for i in range(n)]


# ---------------------------------------------------------------------------
# Window-merge ordering and the straight-line reference
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(case=chunked_sources())
def test_merge_equals_straight_line_reference(case):
    window_ends, sources = case
    specs = _specs(len(sources))
    merged = list(merge_function_chunks(specs, sources, window_ends))
    reference = straight_line_merge(specs, sources)
    assert merged == reference
    assert all(a.spec is b.spec for a, b in zip(merged, reference))


@settings(max_examples=60, deadline=None)
@given(lists=arrival_lists, window_ends=window_ends_strategy,
       data=st.data())
def test_merge_is_ordered_with_function_tiebreak(lists, window_ends, data):
    specs = _specs(len(lists))
    spec_index = {id(spec): i for i, spec in enumerate(specs)}
    sources = [
        _chunked(pairs, data.draw(st.lists(
            st.integers(min_value=0, max_value=len(pairs)), max_size=3)))
        for pairs in lists
    ]
    merged = list(merge_function_chunks(specs, sources, window_ends))

    assert len(merged) == sum(len(pairs) for pairs in lists)
    assert [inv.invocation_id for inv in merged] == list(range(len(merged)))
    keys = [(inv.arrival_time, spec_index[id(inv.spec)]) for inv in merged]
    assert keys == sorted(keys), "merge violated (time, func_idx) order"
    # The merge is a permutation-free interleave: each function's own
    # pairs come back intact and in order.
    for idx, pairs in enumerate(lists):
        mine = [(inv.arrival_time, inv.execution_time_s)
                for inv in merged if spec_index[id(inv.spec)] == idx]
        assert mine == [(t, e) for t, e in pairs]


@settings(max_examples=30, deadline=None)
@given(lists=arrival_lists.filter(
    lambda ls: any(len(pairs) >= 2 for pairs in ls)
), window_ends=window_ends_strategy)
def test_merge_rejects_out_of_order_source(lists, window_ends):
    # Corrupt the first multi-arrival source: its last pair becomes one
    # chunk, followed by a chunk with an earlier-than-possible time.
    bad_idx = next(i for i, pairs in enumerate(lists) if len(pairs) >= 2)
    pairs = list(lists[bad_idx])
    corrupted = _chunked([pairs[-1], (pairs[-1][0] - 1.0, pairs[0][1])], [1])
    sources = [
        corrupted if i == bad_idx else _chunked(p, [])
        for i, p in enumerate(lists)
    ]
    with pytest.raises(ValueError, match="out of order"):
        list(merge_function_chunks(_specs(len(lists)), sources, window_ends))


def _chunk(times, execs=None):
    execs = [1.0] * len(times) if execs is None else execs
    return np.array(times, dtype=np.float64), np.array(execs, dtype=np.float64)


@pytest.mark.parametrize("window_ends", [[], [2.0], [1.5, 3.0, 10.0]])
@pytest.mark.parametrize("bad, message", [
    # A chunk that starts before the previous chunk's end.
    ([_chunk([1.0, 3.0]), _chunk([2.5, 4.0])], "out of order"),
    # A chunk that decreases inside itself.
    ([_chunk([1.0, 3.0, 2.0])], "out of order"),
    # A negative arrival time (the Invocation's own check).
    ([_chunk([-1.0, 2.0])], "arrival_time"),
    # A non-positive execution time (the Invocation's own check).
    ([_chunk([1.0, 2.0], [0.5, 0.0])], "execution_time_s"),
])
def test_merge_rejects_invalid_chunks(bad, message, window_ends):
    sources = [[_chunk([0.5, 2.0, 5.0])], bad]
    with pytest.raises(ValueError, match=message):
        list(merge_function_chunks(_specs(2), sources, window_ends))


# ---------------------------------------------------------------------------
# Azure stream == Azure generate
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_functions=st.integers(min_value=1, max_value=40),
    n_invocations=st.integers(min_value=1, max_value=600),
)
def test_azure_stream_matches_generate(seed, n_functions, n_invocations):
    # AzureTraceConfig requires at least one invocation per function.
    assume(n_invocations >= n_functions)
    gen = AzureTraceGenerator(AzureTraceConfig(
        n_functions=n_functions,
        n_invocations=n_invocations,
        duration_s=60.0,
    ))
    materialized = gen.generate(seed=seed)
    streamed = list(gen.stream(seed=seed))
    assert len(streamed) == len(materialized)
    for lazy, eager in zip(streamed, materialized):
        assert lazy == eager


@pytest.mark.parametrize("burstiness", [None, 0.0, 0.9])
@pytest.mark.parametrize("seed", [0, 7])
def test_azure_stream_equals_straight_line_at_benchmark_shape(
    seed, burstiness
):
    # perfbench's azure-stream shape at a fifth of its length: 2,000
    # functions over five merge windows.
    config = trace_config(2000, 20_000)
    if burstiness is not None:
        config = dataclasses.replace(config, burstiness=burstiness)
    stream = AzureTraceGenerator(config).stream(seed=seed)
    merged = list(stream)
    reference = straight_line_merge(stream.specs, stream.chunk_sources())
    assert len(merged) == 20_000
    assert merged == reference
    assert all(a.spec is b.spec for a, b in zip(merged, reference))


# ---------------------------------------------------------------------------
# run_stream == run
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(items=workload_strategy, scheduler_cls=scheduler_strategy,
       capacity=st.sampled_from([300.0, 800.0, 2000.0, float("inf")]))
def test_run_stream_equals_run(items, scheduler_cls, capacity):
    workload = build_workload(items)

    def run_one(stream_mode: bool):
        scheduler = scheduler_cls()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=capacity),
            scheduler.make_eviction_policy(),
        )
        if stream_mode:
            return sim.run_stream(stream_from_workload(workload), scheduler)
        return sim.run(workload, scheduler)

    batch = run_one(False)
    stream = run_one(True)
    assert stream.summary() == batch.summary()
    batch_cols = batch.telemetry.invocation_columns()
    stream_cols = stream.telemetry.invocation_columns()
    for field in batch_cols._fields:
        assert list(getattr(stream_cols, field)) == \
            list(getattr(batch_cols, field)), field


# ---------------------------------------------------------------------------
# Sketch accuracy and bounded telemetry parity
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=300,
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
    accuracy=st.sampled_from([0.01, 0.02, 0.05]),
)
def test_sketch_quantiles_within_relative_accuracy(values, q, accuracy):
    sketch = QuantileSketch(relative_accuracy=accuracy)
    for v in values:
        sketch.insert(v)
    ordered = sorted(values)
    exact = ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]
    estimate = sketch.quantile(q)
    # DDSketch guarantee: relative error <= accuracy on the value the rank
    # lands on; rounding the rank can shift to a neighbor, so accept being
    # within accuracy of either neighboring order statistic.
    lo_rank = max(0, int(math.floor(q * (len(ordered) - 1))) - 1)
    hi_rank = min(len(ordered) - 1, int(math.ceil(q * (len(ordered) - 1))) + 1)
    lo = ordered[lo_rank] * (1 - 2 * accuracy) - 1e-12
    hi = ordered[hi_rank] * (1 + 2 * accuracy) + 1e-12
    assert lo <= estimate <= hi, (estimate, exact, lo, hi)
    assert sketch.count == len(values)
    assert sketch.min == min(values)
    assert sketch.max == max(values)
    assert sketch.sum == sum(values)


@settings(max_examples=20, deadline=None)
@given(items=workload_strategy, scheduler_cls=scheduler_strategy)
def test_bounded_telemetry_matches_exact_summary(items, scheduler_cls):
    workload = build_workload(items)

    def run_one(bounded: bool):
        scheduler = scheduler_cls()
        sim = ClusterSimulator(
            SimulationConfig(pool_capacity_mb=1500.0,
                             bounded_telemetry=bounded),
            scheduler.make_eviction_policy(),
        )
        return sim.run(workload, scheduler)

    exact = run_one(False)
    bounded = run_one(True)
    assert isinstance(bounded.telemetry, BoundedTelemetry)
    assert isinstance(exact.telemetry, Telemetry)
    exact_summary = exact.summary()
    bounded_summary = bounded.summary()
    assert set(bounded_summary) == set(exact_summary)
    # The sketch estimates the order statistic at rank ``q * (n - 1)``
    # (DDSketch convention); exact telemetry interpolates between order
    # statistics (numpy), so bound the sketch against the *neighboring*
    # exact order statistics, each widened by the relative accuracy.
    lat = sorted(exact.telemetry.latencies())
    for key, q in (("p50_startup_s", 0.5), ("p95_startup_s", 0.95)):
        rank = q * (len(lat) - 1)
        lo = lat[math.floor(rank)] * 0.97 - 1e-12
        hi = lat[math.ceil(rank)] * 1.03 + 1e-12
        assert lo <= bounded_summary[key] <= hi, (key, lo, hi)
    for key, value in exact_summary.items():
        if key not in ("p50_startup_s", "p95_startup_s"):
            assert bounded_summary[key] == value, key
