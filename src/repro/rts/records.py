"""What the runtime reports: one record per reconfiguration, and the summary.

The five record lists (``migrations``, ``shard_moves``, ``recoveries``,
``rejoins``, ``drains``) are kept by the role that does the work and read by
tests and benchmark reports; :func:`summarize` folds them, with the runtime's
counters, into :meth:`~repro.rts.hybrid.HybridRts.read_write_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import RtsStats
    from .sharding import BatchingParams, ShardRouter


def _window(opened: str) -> property:
    """``completed_at`` minus the field ``opened``, or ``None`` until complete."""
    return property(lambda self: None if self.completed_at is None
                    else self.completed_at - getattr(self, opened))


@dataclass
class MigrationRecord:
    """One completed (or in-flight) policy switch, for reports and tests."""

    obj_id: int
    name: str
    target: str
    epoch: int
    primary_node: Optional[int]


@dataclass
class ShardMoveRecord:
    """One cross-group move of an object (drain-and-switch), for reports."""

    obj_id: int
    name: str
    src: int
    dst: int
    epoch: int


@dataclass
class RecoveryRecord:
    """One primary takeover after a primary-node crash, for reports/tests.

    ``from_snapshot`` is true when no surviving secondary held a valid copy
    and the takeover fell back to the last committed state record (the
    primary-invalidate worst case); ``window`` is the object's
    write-unavailability window in virtual seconds.
    """

    obj_id: int
    name: str
    old_primary: int
    new_primary: int
    epoch: int
    from_snapshot: bool
    crashed_at: float
    completed_at: Optional[float] = None

    window = _window("crashed_at")


@dataclass
class RejoinRecord:
    """One recovered node's catch-up back to full membership.

    ``window`` is the time the member was alive but not yet a full member
    (reads served stale or not at all, gap requests skipped it);
    ``objects_reseeded`` counts the replica copies the rejoin seeds restored.
    """

    node_id: int
    recovered_at: float
    completed_at: Optional[float] = None
    objects_reseeded: int = 0
    seats_handed_back: int = 0

    window = _window("recovered_at")


@dataclass
class DrainRecord:
    """One planned node departure: every seat evacuated, then the exit."""

    node_id: int
    started_at: float
    primary_seats_moved: int = 0
    sequencer_seats_moved: int = 0
    completed_at: Optional[float] = None


class Reporting(Protocol):
    """What :func:`summarize` reads of the runtime."""

    stats: "RtsStats"
    router: Optional["ShardRouter"]
    batching: Optional["BatchingParams"]
    num_shards: int
    migrations: List[MigrationRecord]
    shard_moves: List[ShardMoveRecord]
    recoveries: List[RecoveryRecord]
    rejoins: List[RejoinRecord]
    drains: List[DrainRecord]
    removed_shards: List[int]


def summarize(rts: Reporting, summary: Dict[str, Any]) -> Dict[str, Any]:
    """Add the sharding, reconfiguration and transaction sections to the
    base runtime's ``summary`` (each only once it has something to say)."""
    stats = rts.stats
    if rts.router is not None and (rts.num_shards > 1
                                   or rts.batching is not None):
        summary["sharding"] = rts.router.summary()
        if rts.batching is not None:
            summary["batching"] = {
                "max_batch": rts.batching.max_batch,
                "flush_delay": rts.batching.flush_delay,
            }
    if stats.migrations:
        summary["migrations"] = {
            "total": stats.migrations,
            "to_primary": stats.migrations_to_primary,
            "to_broadcast": stats.migrations_to_broadcast,
            "log": [(m.name, m.target, m.primary_node)
                    for m in rts.migrations],
        }
    if (stats.shard_moves or stats.shards_added
            or stats.primary_relocations):
        summary["rebalancing"] = {
            "moves": stats.shard_moves,
            "shards_added": stats.shards_added,
            "primary_relocations": stats.primary_relocations,
            "placement_epoch": (rts.router.placement_epoch
                                if rts.router is not None else 0),
            "log": [(m.name, m.src, m.dst) for m in rts.shard_moves],
        }
    if stats.flow_control_holds:
        summary["flow_control_holds"] = stats.flow_control_holds
    if stats.primary_recoveries:
        windows = [r.window for r in rts.recoveries
                   if r.window is not None]
        summary["recovery"] = {
            "primary_recoveries": stats.primary_recoveries,
            "deduplicated_writes": stats.deduplicated_writes,
            "max_window": round(max(windows), 9) if windows else None,
            "log": [(r.name, r.old_primary, r.new_primary,
                     "snapshot" if r.from_snapshot else "copy")
                    for r in rts.recoveries],
        }
    if (stats.node_rejoins or stats.nodes_drained
            or stats.shards_removed):
        windows = [r.window for r in rts.rejoins if r.window is not None]
        summary["elasticity"] = {
            "node_rejoins": stats.node_rejoins,
            "nodes_drained": stats.nodes_drained,
            "shards_removed": stats.shards_removed,
            "seats_handed_back": stats.seats_handed_back,
            "objects_reseeded": sum(r.objects_reseeded
                                    for r in rts.rejoins),
            "max_rejoin_window": (round(max(windows), 9)
                                  if windows else None),
            "rejoin_log": [
                (r.node_id, r.objects_reseeded, r.seats_handed_back)
                for r in rts.rejoins if r.completed_at is not None],
            "drain_log": [
                (d.node_id, d.primary_seats_moved,
                 d.sequencer_seats_moved)
                for d in rts.drains if d.completed_at is not None],
            "removed_shards": list(rts.removed_shards),
        }
    if stats.txn_commits or stats.txn_aborts:
        summary["transactions"] = {
            "commits": stats.txn_commits,
            "aborts": stats.txn_aborts,
            "same_shard_commits": stats.txn_same_shard_commits,
            "cross_shard_commits": stats.txn_cross_shard_commits,
            "conflict_retries": stats.txn_retries,
            "deferred_writes": stats.txn_deferred_writes,
            "recoveries": stats.txn_recoveries,
        }
    return summary
