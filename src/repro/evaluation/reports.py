"""Plain-text table rendering for benchmark outputs.

The benchmark harness prints tables in the same row/column arrangement as
the paper so measured numbers can be compared side by side with published
ones; this module owns the formatting.
"""
from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render a monospace table.

    Args:
        headers: column names.
        rows: cell values; floats are formatted with ``float_fmt``.
        title: optional line above the table.
        float_fmt: format spec applied to float cells.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

