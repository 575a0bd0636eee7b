"""Plain-text and CSV reporting for experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers render them as aligned ASCII tables (no plotting dependencies).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.simulation.metrics import AccuracyGrid


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_rows(
    rows: Sequence[Mapping[str, object]], *, title: str | None = None
) -> str:
    """Render dict rows (shared keys become columns)."""
    if not rows:
        return title or "(no rows)"
    headers = list(rows[0].keys())
    return format_table(
        headers, [[row.get(h, "") for h in headers] for row in rows], title=title
    )


def format_accuracy_grid(grid: AccuracyGrid, *, title: str | None = None) -> str:
    """Render one Fig. 3 panel: a row per alpha, a column per distance."""
    headers = ["alpha \\ dist"] + [str(d) for d in range(grid.max_distance + 1)]
    rows = []
    for alpha in grid.alphas:
        rows.append([f"a={alpha:g}"] + [grid.accuracy(alpha, d) for d in range(grid.max_distance + 1)])
    return format_table(headers, rows, title=title)


def sparkline(values: Sequence[float]) -> str:
    """Unicode mini-chart of a series (NaN rendered as a space)."""
    blocks = "▁▂▃▄▅▆▇█"
    chars = []
    for value in values:
        if value != value:
            chars.append(" ")
        else:
            clamped = min(max(value, 0.0), 1.0)
            chars.append(blocks[min(int(clamped * len(blocks)), len(blocks) - 1)])
    return "".join(chars)


def write_csv(
    path: str | Path,
    rows: Sequence[Mapping[str, object]],
) -> None:
    """Write dict rows to CSV (header from the first row's keys)."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return
    headers = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=headers)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

