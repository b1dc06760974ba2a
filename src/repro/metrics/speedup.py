"""Speedup and efficiency computation for scaling experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError


@dataclass
class SpeedupCurve:
    """Speedup of a program as a function of the number of processors.

    The baseline is the elapsed time on ``base_procs`` processors (usually 1;
    the paper's ACP figure uses 2 because the master occupies a processor).
    Speedups are normalised so that the curve passes through
    ``(base_procs, base_procs)``, matching how the paper plots its figures.
    """

    times: Dict[int, float]
    base_procs: int = 1

    def __post_init__(self) -> None:
        if self.base_procs not in self.times:
            raise ReproError(
                f"no measurement for the baseline processor count {self.base_procs}"
            )
        if any(t <= 0 for t in self.times.values()):
            raise ReproError("elapsed times must be positive")

    @property
    def processor_counts(self) -> List[int]:
        return sorted(self.times)

    def speedup(self, procs: int) -> float:
        """Speedup on ``procs`` processors relative to the baseline run."""
        base_time = self.times[self.base_procs]
        return self.base_procs * base_time / self.times[procs]

    def efficiency(self, procs: int) -> float:
        """Parallel efficiency: speedup divided by processor count."""
        return self.speedup(procs) / procs

    def speedups(self) -> Dict[int, float]:
        return {p: self.speedup(p) for p in self.processor_counts}

    def as_rows(self) -> List[List[str]]:
        """Rows (CPUs, time, speedup, efficiency) for tabular reports."""
        rows = []
        for procs in self.processor_counts:
            rows.append([
                str(procs),
                f"{self.times[procs]:.4f}",
                f"{self.speedup(procs):.2f}",
                f"{self.efficiency(procs) * 100:.0f}%",
            ])
        return rows


def speedup_from_times(times: Dict[int, float], base_procs: Optional[int] = None) -> SpeedupCurve:
    """Build a :class:`SpeedupCurve`, defaulting the baseline to the smallest count."""
    if not times:
        raise ReproError("no measurements provided")
    base = min(times) if base_procs is None else base_procs
    return SpeedupCurve(times=dict(times), base_procs=base)
