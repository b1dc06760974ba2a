"""Lock state of the transaction layer.

Two very different tables live here:

``MemberLockTable``
    Per-*(member node, object)* lock entries for broadcast-managed
    participants ("order" prepare mode).  Every lock transition is driven
    by a record delivered through the object's shard order, so at any
    order position every member's table agrees — there is no distributed
    lock protocol, just the same deterministic decision replayed at each
    member.  An entry defers (never rejects) conflicting work into a FIFO
    queue of *data* items — plain tuples, so a rejoin seed can ship a
    donor's queue to a recovering member byte-for-byte.

``SeatLockTable``
    Global, coordinator-side locks on primary-copy participants ("seat"
    prepare mode).  The primary's seat already serialises ordinary writes;
    a transaction additionally pins the seat so nothing interleaves
    between its guard evaluation and its commit apply.  Coordinators
    acquire seats in ascending object-id order, interleaved with the
    ordered prepares, so the combined acquisition order is a single global
    resource order: no deadlock is possible.
"""

from __future__ import annotations

from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from collections import deque

#: Queue item replaying an ordinary (non-transactional) delivered write:
#: ``("write", op_name, args, kwargs, epoch, invocation_id, origin, seqno)``.
ITEM_WRITE = "write"
#: Queue item replaying a full txn record: ``("record", payload, origin,
#: seqno)``.
ITEM_RECORD = "record"

#: Entry holds a voted-ready prepare's stashed sub-operations.
MODE_PREPARED = "prepared"
#: Entry is an epoch barrier: a multi-object record was deferred because
#: one of its objects ran ahead of this member's epoch, and all its
#: objects must queue subsequent work until the record replays.
MODE_BARRIER = "barrier"


class LockEntry:
    """Lock on one (member node, object) pair."""

    __slots__ = ("owner", "mode", "stash", "queue")

    def __init__(self, owner: int, mode: str,
                 stash: Tuple[Tuple[Any, ...], ...] = ()) -> None:
        self.owner = owner  # txn id
        self.mode = mode  # MODE_PREPARED | MODE_BARRIER
        #: Sub-operations stashed by a ready prepare, applied at commit:
        #: tuples of ``(index, op_name, args, kwargs)``.
        self.stash = stash
        #: Deferred work, replayed FIFO when the entry releases.
        self.queue: List[Tuple[Any, ...]] = []


class MemberLockTable:
    """Deterministic per-member lock entries for broadcast participants."""

    def __init__(self, node_ids: Iterable[int]) -> None:
        #: node -> {obj -> LockEntry}.  A member's dict is its own: the
        #: participant fetches it once per record and probes it by object
        #: id (the dict objects live as long as the table; a wipe clears
        #: them in place).
        self.members: Dict[int, Dict[int, LockEntry]] = {
            node_id: {} for node_id in node_ids}
        #: txn -> {(node, obj) -> outcome}: the outcome already landed at
        #: that member — lets an outcome sequenced *before* a slow prepare
        #: in the same shard order turn that prepare into a no-op
        #: ("tombstone").  Per *object*, not per transaction: a member may
        #: process one shard's outcome before another shard's prepare of
        #: the same transaction, and that interleaving is member-local —
        #: only the within-shard order may decide a record's fate.
        self.tombstones: Dict[int, Dict[Tuple[int, int], str]] = {}

    def get(self, node_id: int, obj_id: int) -> Optional[LockEntry]:
        return self.members[node_id].get(obj_id)

    # -- per-member txn progress --------------------------------------

    def mark_outcome(self, node_id: int, txn_id: int, objs,
                     outcome: str) -> None:
        marks = self.tombstones.get(txn_id)
        if marks is None:
            marks = self.tombstones[txn_id] = {}
        for obj_id in objs:
            marks.setdefault((node_id, obj_id), outcome)

    # -- lifecycle -----------------------------------------------------

    def forget_txn(self, txn_id: int) -> None:
        """Drop a normally completed transaction's tombstones.

        Lock entries are *not* dropped here — they release strictly via
        the ordered outcome records so every member replays its queues at
        the same order position.
        """
        self.tombstones.pop(txn_id, None)

    def wipe_node(self, node_id: int) -> None:
        """Forget everything a member knew (crash/recover wipe).

        A recovering member is re-seeded from a donor before it resumes
        delivery, exactly like replica state.
        """
        self.members[node_id].clear()
        for txn_id, marks in list(self.tombstones.items()):
            kept = {key: val for key, val in marks.items() if key[0] != node_id}
            if kept:
                self.tombstones[txn_id] = kept
            else:
                del self.tombstones[txn_id]

    # -- rejoin seeds --------------------------------------------------

    def seed_state(self, donor: int, obj_ids) -> Dict[str, Any]:
        """Snapshot the donor member's txn state for a shard's objects."""
        locks = self.members[donor]
        entries = []
        for obj_id in obj_ids:
            entry = locks.get(obj_id)
            if entry is not None:
                entries.append((obj_id, entry.owner, entry.mode,
                                tuple(entry.stash), tuple(entry.queue)))
        outcomes = [
            (txn_id, obj_id, outcome)
            for txn_id in sorted(self.tombstones)
            for (nid, obj_id), outcome in sorted(self.tombstones[txn_id].items())
            if nid == donor and obj_id in obj_ids
        ]
        return {"entries": entries, "outcomes": outcomes}

    def install_seed(self, node_id: int, state: Dict[str, Any]) -> None:
        """Install a donor snapshot as the rejoining member's state."""
        locks = self.members[node_id]
        for obj_id, owner, mode, stash, queue in state.get("entries", ()):
            entry = locks[obj_id] = LockEntry(owner, mode, tuple(stash))
            entry.queue.extend(tuple(item) for item in queue)
        for txn_id, obj_id, outcome in state.get("outcomes", ()):
            self.mark_outcome(node_id, txn_id, (obj_id,), outcome)


class SeatLockTable:
    """Coordinator-side locks pinning primary seats during a transaction."""

    def __init__(self) -> None:
        self._owners: Dict[int, int] = {}  # obj_id -> txn_id
        self._waiters: Dict[int, Deque[Any]] = {}  # obj_id -> procs

    def owner(self, obj_id: int) -> Optional[int]:
        return self._owners.get(obj_id)

    def try_acquire(self, obj_id: int, txn_id: int) -> bool:
        holder = self._owners.get(obj_id)
        if holder is None or holder == txn_id:
            self._owners[obj_id] = txn_id
            return True
        return False

    def wait(self, obj_id: int, proc) -> None:
        self._waiters.setdefault(obj_id, deque()).append(proc)

    def release(self, obj_id: int, txn_id: int) -> List[Any]:
        """Release and return the procs to wake (FIFO, wake-all-recheck)."""
        if self._owners.get(obj_id) != txn_id:
            return []
        del self._owners[obj_id]
        woken = list(self._waiters.pop(obj_id, ()))
        return woken
