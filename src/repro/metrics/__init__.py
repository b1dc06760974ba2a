"""Measurement utilities: speedup curves, speedup figures and report formatting."""

from .report import ascii_plot, format_table, render_speedup_figure
from .speedup import SpeedupCurve, speedup_from_times

__all__ = [
    "SpeedupCurve",
    "speedup_from_times",
    "format_table",
    "ascii_plot",
    "render_speedup_figure",
]
