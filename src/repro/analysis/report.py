"""ASCII rendering of experiment outputs.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep the formatting consistent and dependency
free (no matplotlib available offline).
"""

from __future__ import annotations

from typing import List, Sequence


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
