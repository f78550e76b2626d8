"""Experiment harnesses: one module per paper table/figure.

Each module exposes ``run(...) -> <Result dataclass>`` and
``report(result) -> str`` (the rows/series the paper reports, as ASCII).
:data:`repro.experiments.runall.SECTIONS` is the one table of them that
``python -m repro experiment <key>|all`` runs; the ``benchmarks/``
directory wires each one into pytest-benchmark.

See DESIGN.md section 4 for the experiment index.
"""

from repro.experiments.common import (
    ExperimentScale,
    MethodResult,
    evaluate_scheduler,
    pool_sizes,
    train_mlcr_for,
)

__all__ = [
    "ExperimentScale",
    "MethodResult",
    "evaluate_scheduler",
    "pool_sizes",
    "train_mlcr_for",
]
