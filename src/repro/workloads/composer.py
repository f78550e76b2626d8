"""Workload composition DSL (extending FStartBench, paper future work #1).

The seven canonical workload sets are fixed recipes; this module lets users
compose *new* ones declaratively: pick function specs with mix weights, an
arrival-rate envelope over time (constant, diurnal sinusoid, linear ramp, or
piecewise steps), and a total invocation budget.  Arrivals are drawn from an
inhomogeneous Poisson process via thinning, so any non-negative envelope
works.

Example::

    composer = (
        WorkloadComposer("diurnal-ml")
        .add_function(function_by_id(13), weight=1.0)
        .add_function(function_by_id(5), weight=3.0)
        .with_envelope(DiurnalEnvelope(base_rate=0.5, amplitude=0.4,
                                       period_s=300.0))
        .with_invocations(400)
    )
    workload = composer.build(seed=0)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.workloads.functions import FunctionSpec
from repro.workloads.metrics import workload_similarity, workload_size_variance
from repro.workloads.workload import Invocation, Workload


class RateEnvelope(abc.ABC):
    """A non-negative arrival-rate function of time (invocations/second)."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (>= 0)."""

    @property
    @abc.abstractmethod
    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate` (for thinning)."""


@dataclass(frozen=True)
class ConstantEnvelope(RateEnvelope):
    """Homogeneous Poisson arrivals."""

    rate_per_s: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        return self.rate_per_s

    @property
    def peak_rate(self) -> float:
        """Upper bound on the rate (the constant itself)."""
        return self.rate_per_s


@dataclass(frozen=True)
class DiurnalEnvelope(RateEnvelope):
    """Sinusoidal day/night pattern: ``base * (1 + amplitude sin)``."""

    base_rate: float
    amplitude: float = 0.5
    period_s: float = 600.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0 or self.period_s <= 0:
            raise ValueError("base_rate and period_s must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        phase = 2.0 * np.pi * t / self.period_s + self.phase
        return self.base_rate * (1.0 + self.amplitude * np.sin(phase))

    @property
    def peak_rate(self) -> float:
        """Upper bound on the rate (crest of the sinusoid)."""
        return self.base_rate * (1.0 + self.amplitude)


@dataclass(frozen=True)
class RampEnvelope(RateEnvelope):
    """Linear ramp from ``start_rate`` to ``end_rate`` over ``duration_s``."""

    start_rate: float
    end_rate: float
    duration_s: float

    def __post_init__(self) -> None:
        if min(self.start_rate, self.end_rate) < 0:
            raise ValueError("rates must be >= 0")
        if max(self.start_rate, self.end_rate) <= 0:
            raise ValueError("at least one rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (clamped past the end)."""
        frac = min(max(t / self.duration_s, 0.0), 1.0)
        return self.start_rate + frac * (self.end_rate - self.start_rate)

    @property
    def peak_rate(self) -> float:
        """Upper bound on the rate (the larger endpoint)."""
        return max(self.start_rate, self.end_rate)


@dataclass(frozen=True)
class StepEnvelope(RateEnvelope):
    """Piecewise-constant rates: ``[(until_s, rate), ...]`` sorted by time."""

    steps: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("need at least one step")
        times = [t for t, _ in self.steps]
        if times != sorted(times):
            raise ValueError("steps must be sorted by time")
        if any(r < 0 for _, r in self.steps):
            raise ValueError("rates must be >= 0")
        if all(r == 0 for _, r in self.steps):
            raise ValueError("at least one rate must be positive")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (last step persists)."""
        for until, rate in self.steps:
            if t < until:
                return rate
        return self.steps[-1][1]

    @property
    def peak_rate(self) -> float:
        """Upper bound on the rate (maximum step level)."""
        return max(r for _, r in self.steps)


class WorkloadComposer:
    """Fluent builder for custom workloads."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("workload name must be non-empty")
        self.name = name
        self._functions: List[Tuple[FunctionSpec, float]] = []
        self._envelope: Optional[RateEnvelope] = None
        self._n_invocations: Optional[int] = None

    # -- configuration ------------------------------------------------------
    def add_function(self, spec: FunctionSpec,
                     weight: float = 1.0) -> "WorkloadComposer":
        """Add a function type with a sampling weight."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._functions.append((spec, weight))
        return self

    def with_envelope(self, envelope: RateEnvelope) -> "WorkloadComposer":
        """Set the arrival-rate envelope."""
        self._envelope = envelope
        return self

    def with_invocations(self, n: int) -> "WorkloadComposer":
        """Set the total invocation budget."""
        if n < 1:
            raise ValueError("need at least one invocation")
        self._n_invocations = n
        return self

    # -- building ----------------------------------------------------------
    def build(self, seed: int = 0) -> Workload:
        """Draw the workload (inhomogeneous Poisson thinning)."""
        if not self._functions:
            raise ValueError("no functions added")
        if self._envelope is None:
            raise ValueError("no arrival envelope set")
        if self._n_invocations is None:
            raise ValueError("no invocation budget set")
        rng = np.random.default_rng(seed)
        times = self._sample_arrivals(rng)
        specs, weights = zip(*self._functions)
        probs = np.asarray(weights, dtype=np.float64)
        probs /= probs.sum()
        choices = rng.choice(len(specs), size=len(times), p=probs)
        invocations = [
            Invocation(
                invocation_id=i,
                spec=specs[int(c)],
                arrival_time=float(t),
                execution_time_s=specs[int(c)].sample_exec_time(rng),
            )
            for i, (t, c) in enumerate(zip(times, choices))
        ]
        workload = Workload.from_invocations(self.name, invocations)
        meta = {
            "similarity": workload_similarity(workload),
            "size_variance": workload_size_variance(workload),
        }
        return Workload(name=self.name, invocations=workload.invocations,
                        metadata=meta)

    def _sample_arrivals(self, rng: np.random.Generator) -> np.ndarray:
        """Thinning (Lewis & Shedler): exact inhomogeneous Poisson draws."""
        envelope = self._envelope
        peak = envelope.peak_rate
        times: List[float] = []
        t = 0.0
        # Hard cap on candidate draws guards against degenerate envelopes.
        for _ in range(self._n_invocations * 1000):
            t += rng.exponential(1.0 / peak)
            if rng.random() * peak <= envelope.rate(t):
                times.append(t)
                if len(times) == self._n_invocations:
                    break
        else:  # pragma: no cover - requires a pathological envelope
            raise RuntimeError("arrival sampling did not converge")
        return np.asarray(times)
