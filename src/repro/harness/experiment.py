"""Scaling experiments: run the same Orca program over a range of processor counts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from ..metrics.collectors import RunCollection, RunRecord
from ..metrics.speedup import SpeedupCurve
from ..orca.program import ProgramResult

#: A factory that, given a processor count, runs the program and returns its result.
RunFunction = Callable[[int], ProgramResult]


@dataclass
class ExperimentResult:
    """Outcome of one scaling experiment."""

    name: str
    curve: SpeedupCurve
    runs: RunCollection
    #: The application-level answer from each run (used to assert all
    #: processor counts computed the same result).
    values: Dict[int, Any] = field(default_factory=dict)

    def consistent_values(self) -> bool:
        """True if every processor count produced the same application answer."""
        unique = {repr(v) for v in self.values.values()}
        return len(unique) <= 1


class ScalingExperiment:
    """Runs a program at several processor counts and builds its speedup curve."""

    def __init__(self, name: str, run: RunFunction,
                 processor_counts: Sequence[int], base_procs: Optional[int] = None) -> None:
        self.name = name
        self.run = run
        self.processor_counts = sorted(set(processor_counts))
        self.base_procs = base_procs if base_procs is not None else self.processor_counts[0]

    def execute(self) -> ExperimentResult:
        """Run every configuration; returns the collected curve and records."""
        times: Dict[int, float] = {}
        values: Dict[int, Any] = {}
        runs = RunCollection()
        for procs in self.processor_counts:
            result = self.run(procs)
            times[procs] = result.elapsed
            values[procs] = result.value
            runs.add(RunRecord.from_program_result(
                label=self.name, params={"procs": procs}, result=result,
            ))
        curve = SpeedupCurve(times=times, base_procs=self.base_procs)
        return ExperimentResult(name=self.name, curve=curve, runs=runs, values=values)
