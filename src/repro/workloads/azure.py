"""Synthetic Azure-like serverless trace generator.

The paper motivates MLCR with statistics from the Azure Functions production
trace (Shahrad et al., ATC'20), which is not redistributable here.  This
generator synthesizes traces reproducing the cited aggregates:

* ~19 % of functions are invoked exactly once,
* >40 % of functions are invoked no more than twice,
* invocation counts across functions are heavily skewed (Zipf),
* arrivals are bursty and hard to predict.

Function images are sampled from the default package catalog with popularity
weights from the synthetic Docker Hub registry, so the generated functions
exhibit the same "popular OS/language, diverse runtime" structure that makes
multi-level reuse worthwhile.

Synthesis is *streaming-first*: :meth:`AzureTraceGenerator.stream` builds an
:class:`AzureTraceStream` -- a lazy, restartable
:class:`~repro.workloads.stream.InvocationStream` that window-merges
per-function chunk sources, each synthesizing its arrivals in bounded
numpy chunks (binomial splitting over time slices, so a chunk is an exact
sample of the per-function arrival law restricted to its slice).  The
merge cuts the trace window into ``ceil(n_invocations / ARRIVAL_CHUNK)``
time windows and orders one window at a time.
:meth:`AzureTraceGenerator.generate` is simply ``stream(seed)``
materialized, so list and stream replay agree element-for-element; at
production scale (tens of thousands of functions x millions of
invocations) only the stream is affordable -- its memory is
O(#functions + window + chunk), never O(#invocations).

Burstiness is modeled with a Dirichlet(alpha) weighting over equal time
slices, drawn by stick-breaking (sequential beta-binomial splitting):
``burstiness=0`` degenerates to exact uniform weights (a homogeneous
process), while values near 1 drive ``alpha`` toward 0 and concentrate a
function's invocations into a few slices -- short, hard-to-predict bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Union

import numpy as np

from repro.containers.image import FunctionImage
from repro.packages.catalog import PackageCatalog, default_catalog
from repro.packages.package import Package, PackageLevel
from repro.workloads.functions import FunctionSpec
from repro.workloads.metrics import workload_similarity, workload_size_variance
from repro.workloads.stream import (
    ArrivalChunk,
    InvocationStream,
    StreamStatistics,
    merge_function_chunks,
    statistics_from_counts,
)
from repro.workloads.workload import Invocation, Workload

#: Upper bound on the arrival-chunk size of any single function; the
#: per-function chunk is scaled down proportionally to its share of the
#: trace (floored at :data:`MIN_ARRIVAL_CHUNK`), so the *sum* of live chunk
#: buffers across all merged functions stays O(#functions + chunk).  The
#: merge also cuts the trace into one time window per this many
#: invocations, so a window holds about this many arrivals on average.
ARRIVAL_CHUNK = 4096

#: Floor of the per-function arrival chunk: small-count functions buffer at
#: most this many arrivals, making total merge memory linear in #functions.
MIN_ARRIVAL_CHUNK = 32

#: Equal time slices used for the Dirichlet burstiness weighting, capped so
#: the per-function slice loop stays cheap for huge counts.
MAX_BURST_SLICES = 256


@dataclass(frozen=True)
class AzureTraceConfig:
    """Knobs of the synthetic trace.

    Parameters
    ----------
    n_functions:
        Number of distinct synthetic functions.
    n_invocations:
        Total invocations in the trace.
    duration_s:
        Trace window; arrivals land inside ``[0, duration_s)``.
    zipf_exponent:
        Skew of per-function invocation counts.  The default reproduces the
        "~19 % invoked once, >40 % invoked <= 2 times" statistics.
    single_invocation_fraction:
        Fraction of functions forced to exactly one invocation.
    burstiness:
        0 = homogeneous Poisson; larger values concentrate each function's
        invocations into short bursts (harder to predict).
    """

    n_functions: int = 50
    n_invocations: int = 500
    duration_s: float = 600.0
    zipf_exponent: float = 1.6
    single_invocation_fraction: float = 0.19
    burstiness: float = 0.5

    def __post_init__(self) -> None:
        if self.n_functions < 1 or self.n_invocations < self.n_functions:
            raise ValueError("need n_invocations >= n_functions >= 1")
        if not 0 <= self.single_invocation_fraction < 1:
            raise ValueError("single_invocation_fraction must be in [0, 1)")
        if not 0 <= self.burstiness <= 1:
            raise ValueError("burstiness must be in [0, 1]")


class AzureTraceStream(InvocationStream):
    """Lazy Azure-like trace: specs and counts up front, arrivals on demand.

    Construction samples the function population and per-function
    invocation counts (O(#functions) work and memory); every ``__iter__``
    then window-merges freshly seeded per-function chunk sources
    (:meth:`chunk_sources`), so repeated passes yield identical
    invocations.  A pass holds O(#functions + window + chunk) arrivals.
    ``metadata`` carries the cited trace statistics, computed directly
    from the counts.
    """

    name = "Azure-like"

    def __init__(self, generator: "AzureTraceGenerator", seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.config = generator.config
        root = np.random.default_rng(seed)
        self.specs: List[FunctionSpec] = generator._sample_functions(root)
        self.counts: np.ndarray = generator._invocation_counts(root)
        self.n_invocations = int(self.counts.sum())
        self.metadata = dict(statistics_from_counts(self.counts.tolist()))
        self._generator = generator

    def __len__(self) -> int:
        return self.n_invocations

    def chunk_sources(self) -> List[Iterator[ArrivalChunk]]:
        """Fresh ``(times, exec_times)`` chunk sources, one per spec.

        Source ``i`` draws from its own generator seeded ``(seed, i)``, so
        each pass (and each consumer) sees the same chunks.
        """
        gen = self._generator
        total = max(1, self.n_invocations)
        return [
            gen._function_chunks(
                spec, int(count),
                rng=np.random.default_rng((self.seed, index)),
                chunk=_proportional_chunk(int(count), total),
            )
            for index, (spec, count) in enumerate(zip(self.specs, self.counts))
        ]

    def __iter__(self) -> Iterator[Invocation]:
        windows = max(1, math.ceil(self.n_invocations / ARRIVAL_CHUNK))
        duration = self.config.duration_s
        ends = [duration * k / windows for k in range(1, windows)]
        return merge_function_chunks(self.specs, self.chunk_sources(), ends)


def _proportional_chunk(count: int, total: int) -> int:
    """Per-function chunk size: a share of :data:`ARRIVAL_CHUNK`
    proportional to the function's share of the trace, floored at
    :data:`MIN_ARRIVAL_CHUNK`."""
    share = math.ceil(ARRIVAL_CHUNK * count / total)
    return max(MIN_ARRIVAL_CHUNK, min(ARRIVAL_CHUNK, share))


class AzureTraceGenerator:
    """Generate Azure-like workloads over synthetic function populations."""

    def __init__(
        self,
        config: AzureTraceConfig | None = None,
        catalog: PackageCatalog | None = None,
    ) -> None:
        self.config = config or AzureTraceConfig()
        self.catalog = catalog or default_catalog()

    # -- function synthesis ------------------------------------------------
    def _sample_image(self, rng: np.random.Generator, idx: int) -> FunctionImage:
        """Sample a three-level image with popularity-skewed OS/language."""
        from repro.packages.catalog import (
            LANGUAGE_GROUPS,
            OS_GROUPS,
            language_group,
            os_group,
        )

        def zipf_pick(names: List[str], s: float = 1.2) -> str:
            ranks = np.arange(1, len(names) + 1, dtype=np.float64)
            w = ranks ** (-s)
            w /= w.sum()
            return names[int(rng.choice(len(names), p=w))]

        os_pkgs = os_group(self.catalog, zipf_pick(sorted(OS_GROUPS)))
        lang_pkgs = language_group(self.catalog, zipf_pick(sorted(LANGUAGE_GROUPS)))
        runtimes = self.catalog.at_level(PackageLevel.RUNTIME)
        n_rt = int(rng.integers(0, 4))
        rt_idx = rng.choice(len(runtimes), size=min(n_rt, len(runtimes)),
                            replace=False)
        rt_pkgs = [runtimes[int(i)] for i in rt_idx]
        return FunctionImage.from_packages(
            f"azure/fn-{idx:04d}", [*os_pkgs, *lang_pkgs, *rt_pkgs]
        )

    def _sample_functions(self, rng: np.random.Generator) -> List[FunctionSpec]:
        specs: List[FunctionSpec] = []
        for i in range(self.config.n_functions):
            image = self._sample_image(rng, i)
            specs.append(
                FunctionSpec(
                    func_id=100 + i,
                    name=image.name,
                    image=image,
                    function_init_s=float(rng.uniform(0.05, 1.5)),
                    exec_time_mean_s=float(rng.lognormal(mean=-1.0, sigma=1.0)
                                           + 0.02),
                    exec_time_cv=0.3,
                )
            )
        return specs

    # -- invocation-count distribution -----------------------------------------
    def _invocation_counts(self, rng: np.random.Generator) -> np.ndarray:
        """Zipf-skewed counts with the cited head/tail shape (O(#functions))."""
        cfg = self.config
        n_single = int(round(cfg.single_invocation_fraction * cfg.n_functions))
        n_rest = cfg.n_functions - n_single
        remaining = cfg.n_invocations - n_single
        ranks = np.arange(1, n_rest + 1, dtype=np.float64)
        weights = ranks ** (-cfg.zipf_exponent)
        weights /= weights.sum()
        # Clamp the tail to two invocations: functions invoked exactly once
        # are modeled by the explicit single_invocation_fraction instead, so
        # the measured "invoked once" statistic matches the Azure trace.
        counts = np.maximum(2, np.round(weights * remaining).astype(np.int64))
        # Adjust the head so counts sum exactly to the target.
        diff = remaining - int(counts.sum())
        counts[0] = max(1, counts[0] + diff)
        all_counts = np.concatenate([counts, np.ones(n_single, dtype=np.int64)])
        rng.shuffle(all_counts)
        return all_counts

    # -- arrivals -----------------------------------------------------------
    def _burst_alpha(self) -> float:
        """Dirichlet concentration for the configured burstiness.

        ``burstiness -> 0`` sends alpha to infinity (handled as exact
        uniform weights); ``burstiness -> 1`` sends alpha to ~0, piling a
        function's arrivals into very few slices.
        """
        b = self.config.burstiness
        return max(1e-3, 0.5 * (1.0 - b) / b) if b > 0 else float("inf")

    def _arrival_chunks(
        self, count: int, rng: np.random.Generator,
        chunk: int = ARRIVAL_CHUNK,
    ) -> Iterator[np.ndarray]:
        """Yield ``count`` sorted arrival times in bounded numpy chunks.

        The trace window is cut into equal slices; per-slice counts are
        drawn by stick-breaking (uniform: conditional binomial; bursty:
        beta-binomial, the Dirichlet-multinomial marginal), then each
        slice's arrivals are sorted uniforms within the slice -- split
        recursively when a slice exceeds ``chunk``.  Concatenating the
        chunks reproduces the exact joint law of sorting ``count`` draws
        from the (burst-weighted) arrival density, at O(chunk) memory.
        """
        cfg = self.config
        if count <= 0:
            return
        n_slices = min(MAX_BURST_SLICES, count)
        if cfg.burstiness == 0 or count == 1 or n_slices == 1:
            yield from _sorted_uniform_chunks(
                rng, count, 0.0, cfg.duration_s, chunk
            )
            return
        alpha = self._burst_alpha()
        width = cfg.duration_s / n_slices
        remaining = count
        for s in range(n_slices):
            if s == n_slices - 1:
                take = remaining
            else:
                frac = rng.beta(alpha, alpha * (n_slices - 1 - s))
                take = int(rng.binomial(remaining, frac))
            if take:
                yield from _sorted_uniform_chunks(
                    rng, take, s * width, (s + 1) * width, chunk
                )
            remaining -= take
            if not remaining:
                return

    def _function_chunks(
        self, spec: FunctionSpec, count: int, rng: np.random.Generator,
        chunk: int = ARRIVAL_CHUNK,
    ) -> Iterator[ArrivalChunk]:
        """One function's ``(times, exec_times)`` arrays, chunk by chunk."""
        for times in self._arrival_chunks(count, rng, chunk):
            yield times, spec.sample_exec_times(times.size, rng)

    # -- main entry points --------------------------------------------------
    def stream(self, seed: int = 0) -> AzureTraceStream:
        """Build the lazy trace stream (O(#functions) memory)."""
        return AzureTraceStream(self, seed)

    def generate(self, seed: int = 0) -> Workload:
        """Generate one synthetic trace as a materialized :class:`Workload`.

        Defined as ``stream(seed)`` exhausted into a workload -- list and
        stream replay see identical invocations -- plus the workload-level
        similarity metrics (O(#functions^2); only computed here, never on
        the streaming path).
        """
        stream = self.stream(seed)
        wl = stream.materialize()
        meta: Dict[str, float] = {
            "similarity": workload_similarity(wl),
            "size_variance": workload_size_variance(wl),
            **stream.metadata,
        }
        return Workload(name=wl.name, invocations=wl.invocations, metadata=meta)

    # -- verification helpers ------------------------------------------------
    @staticmethod
    def trace_statistics(
        trace: Union[Workload, Iterable[Invocation]],
    ) -> Dict[str, float]:
        """The cited Azure statistics, measured in a single pass.

        Accepts a materialized :class:`Workload` *or* any invocation
        iterable (including an :class:`AzureTraceStream`); state is one
        counter per function, so streams of any length fit in memory.
        """
        return StreamStatistics().consume(trace).statistics()


def _sorted_uniform_chunks(
    rng: np.random.Generator, count: int, lo: float, hi: float, chunk: int,
) -> Iterator[np.ndarray]:
    """Sorted uniform draws on ``[lo, hi)`` in chunks of at most ``chunk``.

    Uses exact binomial splitting: the interval is cut into equal pieces
    and each piece's count is drawn conditionally (multinomial via
    sequential binomials), recursing while a piece still exceeds the chunk
    bound.  The concatenation is distributed exactly as sorting ``count``
    uniforms on ``[lo, hi)``.
    """
    if count <= 0:
        return
    if count <= chunk:
        yield np.sort(rng.uniform(lo, hi, size=count))
        return
    pieces = math.ceil(count / chunk)
    width = (hi - lo) / pieces
    remaining = count
    for p in range(pieces):
        if p == pieces - 1:
            take = remaining
        else:
            take = int(rng.binomial(remaining, 1.0 / (pieces - p)))
        yield from _sorted_uniform_chunks(
            rng, take, lo + p * width, lo + (p + 1) * width, chunk
        )
        remaining -= take
        if not remaining:
            return
