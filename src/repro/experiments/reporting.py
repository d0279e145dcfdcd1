"""Plain-text rendering of experiment results (tables and series).

The paper's figures are bar charts and time series; a text harness can't
draw them, so every experiment renders to aligned ASCII tables -- the same
rows/columns/series the figures plot.  Campaign results subclass
:class:`Report` and are written by :func:`write_report`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..checkpoint import atomic_write_text

#: One report column: (header, alignment and width, value format, cell).
#: ``cell(run)`` returns the value; ``None`` renders as ``never`` (every
#: optional column is a time-to-event).
Column = Tuple[str, str, str, Callable[[Any], object]]


class Report:
    """A campaign result: one aligned table and one JSON document.

    Subclasses are dataclasses with a ``runs`` list, one table row per
    run.  They declare ``stem`` (the report's file name) and ``COLUMNS``
    as plain class attributes, not fields, so the JSON is exactly the
    dataclass fields.
    """

    COLUMNS: ClassVar[Tuple[Column, ...]] = ()

    def title(self) -> str:
        raise NotImplementedError

    def as_table(self) -> str:
        header = " ".join(format(name, align) for name, align, _, _ in self.COLUMNS)
        rows = [
            " ".join(
                _cell(cell(run), align, spec) for _, align, spec, cell in self.COLUMNS
            )
            for run in self.runs
        ]
        return "\n".join([self.title(), "", header, "-" * len(header), *rows])

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _cell(value: object, align: str, spec: str) -> str:
    return format("never" if value is None else format(value, spec), align)


def write_report(result: Report, out_dir: str = "results") -> str:
    """Write ``<stem>.txt`` and ``<stem>.json`` under ``out_dir``.

    Both files are written atomically (temp + rename), so a crash
    mid-write never leaves a truncated report behind.  Returns the path
    of the text file.
    """
    stem = os.path.join(out_dir, result.stem)
    atomic_write_text(stem + ".txt", result.as_table() + "\n")
    atomic_write_text(stem + ".json", result.to_json() + "\n")
    return stem + ".txt"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_percent_table(
    title: str,
    column_keys: Sequence[str],
    series: Dict[str, Dict[str, float]],
    value_suffix: str = "%",
    scale: float = 100.0,
) -> str:
    """Render {series -> {column -> value}} with percentage formatting.

    This is the shape of Figures 4-6: one row per governor, one column per
    workload set, plus a mean column.
    """
    headers = ["governor"] + list(column_keys) + ["mean"]
    rows = []
    for name, values in series.items():
        cells: List[object] = [name]
        row_vals = [values.get(k, float("nan")) for k in column_keys]
        cells.extend(f"{v * scale:.1f}{value_suffix}" for v in row_vals)
        mean = sum(row_vals) / len(row_vals) if row_vals else float("nan")
        cells.append(f"{mean * scale:.1f}{value_suffix}")
        rows.append(cells)
    return format_table(headers, rows, title=title)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Down-sample a series into a unicode sparkline (for time series)."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    if len(values) > width:
        stride = len(values) / width
        values = [
            values[min(len(values) - 1, int(i * stride))] for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in values)
