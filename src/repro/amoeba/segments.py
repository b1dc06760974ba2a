"""Memory segments — the Amoeba microkernel's low-level memory management.

Threads allocate and free blocks of memory called *segments*, which can be
mapped into and out of an address space.  The shared-object runtime uses
segments as marshalling buffers; the model here is bookkeeping (sizes,
mapping state, capacity limits) rather than byte-level storage, which is all
the higher layers need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import SimulationError


@dataclass
class Segment:
    """A contiguous block of memory-resident storage."""

    segment_id: int
    size: int
    owner_thread: Optional[str] = None
    mapped: bool = False
    data: dict = field(default_factory=dict)

    def write(self, key: str, value) -> None:
        """Store a value under ``key`` (the model does not track raw bytes)."""
        if not self.mapped:
            raise SimulationError(f"segment {self.segment_id} written while unmapped")
        self.data[key] = value

    def read(self, key: str):
        if not self.mapped:
            raise SimulationError(f"segment {self.segment_id} read while unmapped")
        return self.data[key]


class SegmentManager:
    """Per-node segment allocator with a fixed physical-memory budget."""

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024) -> None:
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._segments: Dict[int, Segment] = {}
        self._ids = itertools.count(1)

    def allocate(self, size: int, owner_thread: Optional[str] = None) -> Segment:
        """Allocate a segment of ``size`` bytes.

        Raises
        ------
        SimulationError
            If the node's memory budget would be exceeded (all Amoeba
            segments are memory resident).
        """
        if size <= 0:
            raise SimulationError("segment size must be positive")
        if self.used_bytes + size > self.capacity_bytes:
            raise SimulationError(
                f"out of segment memory: requested {size}, "
                f"free {self.capacity_bytes - self.used_bytes}"
            )
        segment = Segment(next(self._ids), size, owner_thread)
        self._segments[segment.segment_id] = segment
        self.used_bytes += size
        return segment

    def free(self, segment: Segment) -> None:
        """Release a segment back to the pool."""
        stored = self._segments.pop(segment.segment_id, None)
        if stored is None:
            raise SimulationError(f"segment {segment.segment_id} already freed")
        self.used_bytes -= stored.size

    def map(self, segment: Segment) -> Segment:
        """Map a segment into the caller's address space."""
        if segment.segment_id not in self._segments:
            raise SimulationError(f"cannot map freed segment {segment.segment_id}")
        segment.mapped = True
        return segment

    def unmap(self, segment: Segment) -> None:
        segment.mapped = False

    def __len__(self) -> int:
        return len(self._segments)
