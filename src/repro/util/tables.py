"""Plain-text table formatting used by the experiment drivers.

The experiments render the rows of the paper's Table I (and of the derived
figures) as aligned ASCII tables; no plotting library is required.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Args:
        headers: Column names.
        rows: Iterable of row tuples; cells are converted with ``str``
            (floats get a compact 3-decimal rendering).
        title: Optional title printed above the table.

    Returns:
        A multi-line string ready to ``print``.
    """
    str_rows = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        padded = [c.ljust(widths[i]) for i, c in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(fmt_row(list(headers)))
    lines.append(separator)
    for row in str_rows:
        lines.append(fmt_row(row))
    lines.append(separator)
    return "\n".join(lines)


def format_series(name: str, times: Sequence[float], values: Sequence[float],
                  max_points: int = 20) -> str:
    """Render a time series compactly (used for the figure experiments).

    Long series are down-sampled to at most ``max_points`` points so that a
    rendered figure stays readable while still conveying the shape of the
    curve.
    """
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    n = len(times)
    if n == 0:
        return f"{name}: (empty)"
    stride = max(1, n // max_points)
    picked = list(range(0, n, stride))
    if picked[-1] != n - 1:
        picked.append(n - 1)
    pairs = ", ".join(f"({times[i]:.2f}, {values[i]:.3f})" for i in picked)
    return f"{name}: {pairs}"
