"""Structured collection of benchmark run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..orca.program import ProgramResult


@dataclass
class RunRecord:
    """One benchmark run with its identifying parameters and measurements."""

    label: str
    params: Dict[str, Any]
    elapsed: float
    value: Any = None
    network: Dict[str, Any] = field(default_factory=dict)
    rts: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_program_result(cls, label: str, params: Dict[str, Any],
                            result: ProgramResult, **extra: Any) -> "RunRecord":
        return cls(
            label=label,
            params=dict(params),
            elapsed=result.elapsed,
            value=result.value,
            network=dict(result.network),
            rts=dict(result.rts),
            extra=dict(extra),
        )


class RunCollection:
    """An append-only set of :class:`RunRecord` with simple query helpers."""

    def __init__(self, records: Optional[Iterable[RunRecord]] = None) -> None:
        self.records: List[RunRecord] = list(records or [])

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def filter(self, **criteria: Any) -> "RunCollection":
        """Select records whose params match every given key/value."""
        selected = [
            record for record in self.records
            if all(record.params.get(key) == value for key, value in criteria.items())
        ]
        return RunCollection(selected)

    def times_by(self, param: str) -> Dict[Any, float]:
        """Map of ``param`` value to elapsed time (last record wins on duplicates)."""
        return {record.params.get(param): record.elapsed for record in self.records}

    def column(self, key: str, source: str = "params") -> List[Any]:
        """Extract one column across records (from params/network/rts/extra)."""
        return [getattr(record, source).get(key) for record in self.records]
