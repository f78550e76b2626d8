"""The exploration (epsilon) schedule for epsilon-greedy action selection."""

from __future__ import annotations


class LinearDecayEpsilon:
    """Linear decay from ``start`` to ``end`` over ``decay_steps``.

    Maps a global step counter to an exploration probability in [0, 1].
    """

    def __init__(
        self, start: float = 1.0, end: float = 0.05, decay_steps: int = 10_000
    ) -> None:
        for name, v in (("start", start), ("end", end)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if decay_steps < 1:
            raise ValueError("decay_steps must be >= 1")
        self.start = start
        self.end = end
        self.decay_steps = decay_steps

    def value(self, step: int) -> float:
        """Epsilon at the given global step."""
        if step >= self.decay_steps:
            return self.end
        frac = step / self.decay_steps
        return self.start + frac * (self.end - self.start)
