"""What ``BENCHMARK.json`` declares, and the statistics every report uses."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]


def load_declaration() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics with unit, direction and bound."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_table(declaration: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every declared metric by name (end-to-end ones carry a ``bound``)."""
    return {m["name"]: m for m in declaration["end_to_end"] + declaration["per_layer"]}


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, Any]) -> float:
    """Distance between the quartiles as a share of the median."""
    if not summary["n"] or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def format_rows(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def number(value: Any) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"
