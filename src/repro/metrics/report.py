"""Plain-text report formatting: tables and the paper-style speedup plots."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .speedup import SpeedupCurve


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Render a simple aligned text table."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for i in range(columns):
            widths[i] = max(widths[i], len(str(row[i])))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in rows:
        lines.append("  ".join(str(row[i]).ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def ascii_plot(series: Dict[str, Dict[float, float]], width: int = 60, height: int = 18,
               x_label: str = "processors", y_label: str = "speedup",
               title: Optional[str] = None, y_max: Optional[float] = None) -> str:
    """Render one or more (x -> y) series as an ASCII scatter plot.

    Used to regenerate the paper's Fig. 2 / Fig. 3 style speedup charts in a
    terminal.  Each series gets a distinct marker character.
    """
    markers = "*o+x#@"
    all_x = [x for points in series.values() for x in points]
    all_y = [y for points in series.values() for y in points.values()]
    if not all_x:
        return "(no data)"
    x_min, x_max = min(all_x), max(all_x)
    y_min = 0.0
    y_top = y_max if y_max is not None else max(all_y) * 1.05
    if x_max == x_min:
        x_max = x_min + 1
    if y_top <= y_min:
        y_top = y_min + 1

    grid = [[" " for _ in range(width)] for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in points.items():
            col = int(round((x - x_min) / (x_max - x_min) * (width - 1)))
            row = int(round((y - y_min) / (y_top - y_min) * (height - 1)))
            row = min(height - 1, max(0, row))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        y_value = y_top - (y_top - y_min) * i / (height - 1)
        lines.append(f"{y_value:6.1f} |" + "".join(row))
    lines.append(" " * 7 + "+" + "-" * width)
    lines.append(" " * 8 + f"{x_min:<10.0f}{x_label:^{max(0, width - 20)}}{x_max:>10.0f}")
    legend = "   ".join(f"{markers[i % len(markers)]} = {name}"
                        for i, name in enumerate(series))
    lines.append(f"        [{y_label}]  {legend}")
    return "\n".join(lines)


def render_speedup_figure(title: str, curve: SpeedupCurve,
                          max_procs: Optional[int] = None) -> str:
    """Render a Fig. 2 / Fig. 3 style chart: measured speedup vs perfect speedup."""
    procs = curve.processor_counts
    top = max_procs or max(procs)
    measured = {float(p): curve.speedup(p) for p in procs}
    perfect = {float(p): float(p) for p in procs}
    chart = ascii_plot(
        {"measured": measured, "perfect": perfect},
        title=title, x_label="number of processors", y_label="speedup",
        y_max=float(top),
    )
    table = format_table(
        ["CPUs", "time (s)", "speedup", "efficiency"],
        curve.as_rows(),
    )
    return f"{chart}\n\n{table}"
