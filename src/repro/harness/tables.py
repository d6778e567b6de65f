"""Plain-text rendering of experiment tables and figure series."""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    name: str, points: Sequence, width: int = 48, title: str = ""
) -> str:
    """Render a numeric series as a labeled ASCII bar strip."""
    values = [float(v) for _, v in points]
    top = max(values) if values else 1.0
    lines = [title] if title else []
    lines.append(name)
    for label, value in points:
        bar = "#" * max(1, int(width * float(value) / top)) if top > 0 else ""
        lines.append(f"  {str(label):>12s} | {bar} {value:.3g}")
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3g}"
    return str(cell)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 if empty)."""
    import math

    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
