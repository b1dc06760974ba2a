"""Access statistics driving the dynamic replication policy.

The point-to-point runtime decides *per machine and per object* whether to
keep a local copy, based on the observed ratio of reads to writes.  The
statistics use an exponentially decayed window so the policy adapts when the
access pattern changes phase (e.g. a data-structure that is write-heavy while
being built and read-heavy afterwards).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..config import ReplicationParams


@dataclass
class ShardStats:
    """Per-shard traffic counters kept by the sharded broadcast runtime.

    ``batches`` counts ordered broadcasts that carried batched writes;
    ``batched_ops`` counts the operations inside them, so
    ``batched_ops / batches`` is the achieved batching factor for the shard.
    """

    creates: int = 0
    #: Write *invocations* routed to the shard (one per invocation, however
    #: many broadcasts guard retries cost — matching the per-object counts).
    writes: int = 0
    batches: int = 0
    batched_ops: int = 0
    max_batch: int = 0
    #: Policy switches ordered through this shard's broadcast group.
    migrations: int = 0

    def note_create(self) -> None:
        self.creates += 1

    def note_write(self) -> None:
        self.writes += 1

    def note_migration(self) -> None:
        self.migrations += 1

    def note_batch(self, ops: int) -> None:
        self.batches += 1
        self.batched_ops += ops
        if ops > self.max_batch:
            self.max_batch = ops

    @property
    def mean_batch(self) -> float:
        return self.batched_ops / self.batches if self.batches else 0.0

    def summary(self) -> Dict[str, Any]:
        digest = {
            "creates": self.creates,
            "writes": self.writes,
            "batches": self.batches,
            "batched_ops": self.batched_ops,
            "max_batch": self.max_batch,
            "mean_batch": round(self.mean_batch, 3),
        }
        if self.migrations:
            digest["migrations"] = self.migrations
        return digest


@dataclass
class AccessStats:
    """Read/write counters for one (object, machine) pair."""

    reads: float = 0.0
    writes: float = 0.0
    total_reads: int = 0
    total_writes: int = 0

    def note_read(self) -> None:
        self.reads += 1.0
        self.total_reads += 1

    def note_write(self) -> None:
        self.writes += 1.0
        self.total_writes += 1

    @property
    def accesses(self) -> float:
        return self.reads + self.writes

    @property
    def ratio(self) -> float:
        """Read/write ratio; all-read windows report infinity."""
        if self.writes == 0.0:
            return float("inf") if self.reads > 0 else 0.0
        return self.reads / self.writes

    def decay(self, factor: float) -> None:
        """Shrink the window so newer accesses dominate older ones."""
        self.reads *= factor
        self.writes *= factor


class ReplicationDecider:
    """Applies the hysteresis thresholds of the dynamic replication policy."""

    def __init__(self, params: ReplicationParams) -> None:
        self.params = params
        self._stats: Dict[Tuple[int, int], AccessStats] = {}
        self.replicate_decisions = 0
        self.drop_decisions = 0

    def stats_for(self, obj_id: int, node_id: int) -> AccessStats:
        key = (obj_id, node_id)
        stats = self._stats.get(key)
        if stats is None:
            stats = AccessStats()
            self._stats[key] = stats
        return stats

    def should_replicate(self, obj_id: int, node_id: int) -> bool:
        """True if a machine *without* a copy should fetch one."""
        stats = self.stats_for(obj_id, node_id)
        if stats.accesses < self.params.min_accesses:
            return False
        decision = stats.ratio > self.params.replicate_threshold
        if decision:
            self.replicate_decisions += 1
            stats.decay(self.params.decay)
        return decision

    def should_drop(self, obj_id: int, node_id: int) -> bool:
        """True if a machine *with* a copy should discard it."""
        stats = self.stats_for(obj_id, node_id)
        if stats.accesses < self.params.min_accesses:
            return False
        decision = stats.ratio < self.params.drop_threshold
        if decision:
            self.drop_decisions += 1
            stats.decay(self.params.decay)
        return decision
