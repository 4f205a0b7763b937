"""ASCII bar charts for figure-style benchmark output.

Figures 4 and 5 of the paper are grouped bar charts (speedup per program
per strategy); :func:`bar_chart` renders the same data in a terminal.
"""
from __future__ import annotations

from typing import Sequence


def bar_chart(
    labels: Sequence[str],
    series: dict[str, Sequence[float]],
    width: int = 40,
    title: str | None = None,
    baseline: float | None = 1.0,
    fmt: str = "{:.2f}",
) -> str:
    """Render grouped horizontal bars.

    Args:
        labels: one label per group (e.g. program names).
        series: series name -> one value per group (e.g. strategy -> speedups).
        width: character width of the longest bar.
        title: optional heading.
        baseline: draw a tick at this value (e.g. speedup 1.0); None to skip.
        fmt: value format.

    Raises:
        ValueError: if any series length differs from ``labels``.
    """
    for name, values in series.items():
        if len(values) != len(labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(labels)} labels"
            )
    all_values = [v for vs in series.values() for v in vs]
    if not all_values:
        return title or ""
    vmax = max(max(all_values), baseline or 0.0, 1e-12)
    name_w = max(len(n) for n in series)
    lines: list[str] = []
    if title:
        lines.append(title)
    for gi, label in enumerate(labels):
        lines.append(f"{label}")
        for name, values in series.items():
            v = values[gi]
            n = max(0, int(round(v / vmax * width)))
            bar = "#" * n
            if baseline is not None and 0 < baseline <= vmax:
                tick = int(round(baseline / vmax * width))
                if tick < len(bar):
                    bar = bar[:tick] + "|" + bar[tick + 1 :]
                elif tick >= len(bar):
                    bar = bar + " " * (tick - len(bar)) + "|"
            lines.append(
                f"  {name.ljust(name_w)} {bar} {fmt.format(v)}"
            )
    return "\n".join(lines)
