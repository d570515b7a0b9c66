"""Plain-text rendering of benchmark tables and series.

:func:`write_bench_json` persists a command's aggregated
instrumentation payload (:mod:`repro.obs`) as a ``BENCH_<name>.json``
trajectory file next to the rendered text.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional, Sequence

__all__ = [
    "render_table",
    "render_series",
    "write_bench_json",
]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table (paper-style rows)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in cells)) if cells else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x_label: str,
    xs: Sequence,
    series: Dict[str, Sequence],
    title: Optional[str] = None,
) -> str:
    """Render figure data as a table: one x column + one column/series."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i] for name in series])
    return render_table(headers, rows, title=title)


def write_bench_json(out_dir: str, name: str, payload: Dict) -> str:
    """Write ``payload`` to ``<out_dir>/BENCH_<name>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path
