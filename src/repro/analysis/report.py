"""ASCII rendering of experiment outputs.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep the formatting consistent and dependency
free (no matplotlib available offline).

The telemetry-consuming reports read only aggregate methods
(``queueing_summary``, ``worker_utilization``), so they duck-type over both
the columnar :class:`~repro.cluster.telemetry.Telemetry` and the legacy
row-oriented reference -- the parity suite renders both and asserts the
bytes match.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.telemetry import Telemetry


def format_seconds(value: float) -> str:
    """Human-friendly seconds with stable width."""
    if value >= 100:
        return f"{value:8.1f}s"
    return f"{value:8.2f}s"


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
    title: str = "",
) -> str:
    """Render a horizontal bar chart (one bar per label)."""
    values = list(values)
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return title
    peak = max(values) or 1.0
    label_w = max(len(l) for l in labels)
    lines: List[str] = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def queueing_report(telemetry: "Telemetry", title: str = "Startup queueing") -> str:
    """Render a run's queueing-delay summary as a table.

    Empty string when the run never enforced a worker concurrency limit
    (no queueing telemetry to report).
    """
    if not telemetry.queueing_enabled:
        return ""
    q = telemetry.queueing_summary()
    rows = [
        ["queued starts", f"{int(q['queued_starts'])}"],
        ["total queueing", format_seconds(q["total_queueing_s"]).strip()],
        ["mean queueing", format_seconds(q["mean_queueing_s"]).strip()],
        ["p95 queueing", format_seconds(q["p95_queueing_s"]).strip()],
        ["max queue depth", f"{int(q['max_queue_depth'])}"],
    ]
    return ascii_table(["metric", "value"], rows, title=title)


def surrogate_report(
    telemetry: "Telemetry", title: str = "Distilled-policy audit"
) -> str:
    """Render a run's surrogate-audit counters as a table.

    Shows how many distilled-surrogate decisions were double-checked
    against the full network and how many disagreed (distillation drift).
    Empty string when the run never audited a surrogate (no distilled
    policy attached, or auditing disabled).
    """
    audits = getattr(telemetry, "surrogate_audits", 0)
    if not audits:
        return ""
    disagreements = telemetry.surrogate_disagreements
    rows = [
        ["audited decisions", f"{audits}"],
        ["disagreements", f"{disagreements}"],
        ["agreement", f"{1.0 - disagreements / audits:.1%}"],
    ]
    return ascii_table(["metric", "value"], rows, title=title)


def worker_utilization_report(
    telemetry: "Telemetry", title: str = "Worker utilization"
) -> str:
    """Render per-worker busy fractions as a bar chart.

    Busy time (startup + execution seconds) over the run's duration, one
    bar per worker.  Empty string when no busy time was recorded (i.e.
    admission control was disabled).
    """
    utilization = telemetry.worker_utilization()
    if not utilization:
        return ""
    labels = [f"worker {w}" for w in utilization]
    values = [u * 100.0 for u in utilization.values()]
    return ascii_bar_chart(labels, values, unit="%", title=title)
