"""Minimal ASCII charts for terminal-rendered figures."""

from __future__ import annotations

from typing import Sequence


def bar_chart(labels: Sequence[str], values: Sequence[float],
              width: int = 50, title: str | None = None,
              unit: str = "") -> str:
    """Horizontal bar chart, scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max((abs(v) for v in values), default=1.0) or 1.0
    label_w = max((len(x) for x in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value else 0, round(abs(value) / peak * width))
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)
