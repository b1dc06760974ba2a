"""Delivery-side transaction record processing (runs at every member).

Every ``txn-*`` record rides a shard's totally-ordered broadcast, so this
code runs at each member *at the same position of the same order* — every
decision below is either a pure function of (record, member-local lock
table, epoch cursor) whose inputs are themselves order-determined, or a
member-local deferral that replays in a position-preserving way:

* a record touching a **locked** object is deferred into that lock's FIFO
  queue; all lock transitions for an object ride its single shard order,
  so every member defers the same records at the same positions;
* a record stamped with an **epoch this member has not delivered yet**
  (it outran a shard move's switch, exactly like PR 4's future writes) is
  deferred under a *barrier* lock on every object it touches, so writes
  delivered behind it queue in FIFO and replay in delivery order when the
  local switch lands — members that never lagged applied the identical
  sequence inline.

Deferred work is stored as plain data tuples (never closures) so a rejoin
seed can ship a donor member's queues to a recovering machine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import RtsError
from ..rts.object_model import RETRY, execute_operation
from ..rts.p2p.fanout import FUTURE, STALE
from ..rts.switch import MIGRATED
from .locks import (
    ITEM_RECORD,
    ITEM_WRITE,
    LockEntry,
    MODE_BARRIER,
    MODE_PREPARED,
)
from .records import (
    KIND_ATOMIC,
    KIND_DECIDE,
    KIND_OUTCOME,
    KIND_PREPARE,
    OUTCOME_COMMIT,
    VOTE_READY,
    VOTE_RETRY,
)


def guard_vote(steps: Sequence[Tuple[Any, ...]]) -> Optional[int]:
    """Vote on a group of sub-operations without applying any of them.

    ``steps`` are ``(obj_id, replica, op, args, kwargs)`` in execution
    order; the result is the object whose guard is the first to reject, or
    ``None`` when the whole group may run.  Guards are pure (the runtime
    evaluates them on live replicas for every ordinary write), so an
    object's *first* sub-operation is judged on the live instance.  Only a
    guard that follows earlier sub-operations on its object has to see
    their effects: then, and only then, the object is cloned and the
    earlier steps replayed on the clone.
    """
    earlier: Dict[int, List[Tuple[Any, ...]]] = {}
    clones: Dict[int, Any] = {}
    for step in steps:
        obj_id, replica, op, args, kwargs = step
        before = earlier.get(obj_id)
        if before is None:
            if op.guard is not None and not op.guard(replica.instance, *args,
                                                     **kwargs):
                return obj_id
            earlier[obj_id] = [step]
        elif op.guard is None:
            before.append(step)
        else:
            clone = clones.get(obj_id)
            if clone is None:
                clone = clones[obj_id] = replica.instance.clone()
            for _obj, _replica, done, done_args, done_kwargs in before:
                execute_operation(clone, done, done_args, done_kwargs)
            if execute_operation(clone, op, args, kwargs) is RETRY:
                return obj_id
            before.clear()
    return None


class TxnParticipant:
    """Processes delivered ``txn-*`` records at one member."""

    def __init__(self, layer) -> None:
        self.layer = layer
        rts = self.rts = layer.rts
        #: node -> (its object manager, its Node, its own lock dict).
        self._members = {
            node.node_id: (rts.managers[node.node_id], node,
                           layer.locks.members[node.node_id])
            for node in rts.cluster.nodes}
        self._tombstones = layer.locks.tombstones
        #: Record kind -> handler ``(node_id, payload, origin, seqno)``:
        #: how a record enters, fresh from the order or replayed.
        self.handlers = {
            KIND_ATOMIC: self._on_atomic,
            KIND_PREPARE: self._on_prepare,
            KIND_DECIDE: self._on_outcome,
            KIND_OUTCOME: self._on_outcome,
        }

    # -- entry points ---------------------------------------------------

    def defer_write(self, node_id: int, obj_id: int,
                    write: Tuple[Any, ...]) -> bool:
        """Queue an ordinary delivered write behind a lock, if one exists.

        Called from ``_apply_one`` *before* its epoch checks: once a lock
        (prepared or barrier) exists on a member's object, everything
        delivered later for that object must replay after it, in FIFO
        order, regardless of its epoch stamp.
        """
        entry = self._members[node_id][2].get(obj_id)
        if entry is None:
            return False
        entry.queue.append((ITEM_WRITE,) + tuple(write))
        self.rts.stats.txn_deferred_writes += 1
        return True

    def on_switch_delivered(self, node_id: int, obj_id: int) -> None:
        """Replay an epoch barrier once the member delivered the switch."""
        locks = self._members[node_id][2]
        entry = locks.get(obj_id)
        if entry is not None and entry.mode == MODE_BARRIER:
            self._release(node_id, locks, obj_id)

    # -- atomic fast path ----------------------------------------------

    def _on_atomic(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                   seqno: int) -> None:
        _, txn_id, entries, invocation_id = payload
        rts = self.rts
        manager, node, locks = self._members[node_id]
        # Deferred behind any foreign lock: FIFO into the first locked
        # object's queue (lock state is order-determined, so every member
        # picks the same queue at the same position).
        for sub in entries:
            entry = locks.get(sub[1])
            if entry is not None and not (entry.mode == MODE_BARRIER
                                          and entry.owner == txn_id):
                entry.queue.append((ITEM_RECORD, payload, origin, seqno))
                return
        future_obj = None
        for _index, obj_id, _op, _args, _kwargs, epoch in entries:
            verdict = rts.switch.classify(node_id, obj_id, epoch)
            if verdict == STALE:
                # Sequenced after a switch it predates: dropped identically
                # at every member; the origin re-groups and re-issues.
                self._drop_own_barriers(node_id, locks, txn_id, entries)
                if origin == node_id:
                    rts._resolve(invocation_id, MIGRATED)
                return
            if verdict == FUTURE and future_obj is None:
                future_obj = obj_id
        if future_obj is not None:
            self._defer_future(node_id, txn_id, future_obj,
                               [e[1] for e in entries], payload, origin, seqno)
            return
        # All-or-nothing: every guard votes first, the real replicas are
        # touched only when the whole group passes.
        steps = []
        charges = []
        for _index, obj_id, op_name, args, kwargs, _epoch in entries:
            site = rts._site(node_id, obj_id, op_name)
            steps.append((obj_id, self._replica(node_id, manager, txn_id, obj_id),
                          site.op, args, kwargs))
            charges.append(site.apply_cost)
        failed = guard_vote(steps)
        if failed is not None:
            node.charge_overhead(rts.cost_model.cpu.operation_dispatch_cost)
            self._drop_own_barriers(node_id, locks, txn_id, entries)
            if origin == node_id:
                rts._resolve(invocation_id, (VOTE_RETRY, failed))
            return
        results = {}
        history = rts.history
        for sub, (obj_id, replica, op, args, kwargs), charge in zip(
                entries, steps, charges):
            results[sub[0]] = manager.apply_write_to(
                replica, op, args, kwargs, local_origin=origin == node_id)
            node.charge_overhead(charge)
            if history.enabled:
                history.record_write(node_id, obj_id, op.name, args, seqno,
                                     replica.version)
        # Own epoch barriers release only now: their queued work was
        # delivered after this record, so it replays after the applies.
        self._drop_own_barriers(node_id, locks, txn_id, entries)
        if origin == node_id:
            rts._resolve(invocation_id, (VOTE_READY, results))

    # -- 2PC prepare ----------------------------------------------------

    def _on_prepare(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                    seqno: int) -> None:
        _, txn_id, obj_id, epoch, sub_ops, invocation_id = payload
        marks = self._tombstones.get(txn_id)
        if marks is not None and (node_id, obj_id) in marks:
            # An outcome naming this object was sequenced ahead of this
            # prepare in the same shard order (the coordinator died with
            # the prepare in flight): it is void everywhere.
            return
        rts = self.rts
        manager, node, locks = self._members[node_id]
        entry = locks.get(obj_id)
        if entry is not None and not (entry.mode == MODE_BARRIER
                                      and entry.owner == txn_id):
            entry.queue.append((ITEM_RECORD, payload, origin, seqno))
            return
        verdict = rts.switch.classify(node_id, obj_id, epoch)
        if verdict == FUTURE:
            self._defer_future(node_id, txn_id, obj_id, [obj_id], payload,
                               origin, seqno)
            return
        if entry is not None:  # this record's own epoch barrier
            self._release(node_id, locks, obj_id)
        if verdict == STALE:
            if origin == node_id:
                rts._resolve(invocation_id, MIGRATED)
            return
        replica = self._replica(node_id, manager, txn_id, obj_id)
        ready = guard_vote([
            (obj_id, replica, rts._site(node_id, obj_id, op_name).op, args, kwargs)
            for _index, op_name, args, kwargs in sub_ops]) is None
        node.charge_overhead(rts.cost_model.cpu.operation_dispatch_cost)
        if ready:
            # Stash the sub-operations under the lock; they apply when the
            # outcome record releases it.  Conflicting work delivered in
            # the meantime defers into the lock's queue (never rejected),
            # so per-client FIFO holds across the prepared window.
            locks[obj_id] = LockEntry(txn_id, MODE_PREPARED, tuple(sub_ops))
        if origin == node_id:
            rts._resolve(invocation_id,
                         (VOTE_READY if ready else VOTE_RETRY, obj_id))

    # -- 2PC decide / outcome -------------------------------------------

    def _on_outcome(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                    seqno: int) -> None:
        kind, txn_id, outcome, objs, invocation_id = payload
        rts = self.rts
        manager, node, locks = self._members[node_id]
        # No early dedup return: a transaction's outcome reaches each of
        # its shards in a separate record, and each must run the apply
        # loop for its own objects.  Duplicates *within* a shard (the
        # coordinator and a recovery pass racing) are harmless — the
        # per-object lock entry is gone after the first one, and
        # ``mark_outcome`` keeps the first outcome for the tombstone check.
        # An outcome must not overtake a *foreign* lock (its own prepare
        # may be queued inside) or its own epoch barrier (its own prepare
        # definitely is): queue it behind them, in the same FIFO.  A lock
        # this transaction holds prepared is the one this outcome is here
        # to release — never defer behind that.
        for obj_id in objs:
            entry = locks.get(obj_id)
            if entry is not None and (entry.owner != txn_id
                                      or entry.mode == MODE_BARRIER):
                entry.queue.append((ITEM_RECORD, payload, origin, seqno))
                return
        desc = self.layer.descs.get(txn_id)
        if kind == KIND_DECIDE and desc is not None:
            # First decide record in the decision shard's order wins —
            # identical at every member, because this assignment happens at
            # the same order position everywhere.
            if desc.outcome is None:
                desc.outcome = outcome
            outcome = desc.outcome
        if self.layer.keeps_tombstone(desc):
            self.layer.locks.mark_outcome(node_id, txn_id, objs, outcome)
        node.charge_overhead(rts.cost_model.cpu.operation_dispatch_cost)
        history = rts.history
        for obj_id in objs:
            entry = locks.get(obj_id)
            if entry is None or entry.owner != txn_id:
                continue  # voted retry here: nothing stashed, nothing held
            del locks[obj_id]
            if outcome == OUTCOME_COMMIT:
                replica = manager.get(obj_id)
                for index, op_name, args, kwargs in entry.stash:
                    site = rts._site(node_id, obj_id, op_name)
                    result = manager.apply_write_to(
                        replica, site.op, args, kwargs,
                        local_origin=origin == node_id)
                    node.charge_overhead(site.apply_cost)
                    if history.enabled:
                        history.record_write(node_id, obj_id, op_name, args,
                                             seqno, replica.version)
                    if desc is not None:
                        desc.results[index] = result
            if entry.queue:
                self._replay(node_id, locks, obj_id, entry.queue)
        if origin == node_id:
            rts._resolve(invocation_id, None)

    # -- deferral machinery ---------------------------------------------

    def _replica(self, node_id: int, manager, txn_id: int, obj_id: int):
        replica = manager.replicas.get(obj_id)
        if replica is None or not replica.valid:
            raise RtsError(
                f"node {node_id} received a record of transaction {txn_id} "
                f"for object {obj_id} before its create message"
            )
        return replica

    def _defer_future(self, node_id: int, txn_id: int, future_obj: int,
                      obj_ids: List[int], payload: Tuple[Any, ...],
                      origin: int, seqno: int) -> None:
        """Hold back a record that outran this member's epoch.

        A barrier lock lands on *every* object of the record (members that
        never lagged interleave later deliveries after the record, so the
        lagging member must queue them too), earlier future-deferred
        ordinary writes are absorbed ahead of the record, and the record
        itself queues on the object whose switch it awaits.
        """
        rts = self.rts
        locks = self._members[node_id][2]
        for obj_id in obj_ids:
            if obj_id in locks:
                continue  # already barriered by an earlier deferral
            entry = locks[obj_id] = LockEntry(txn_id, MODE_BARRIER)
            for write in rts.switch.take_future_writes(node_id, obj_id):
                entry.queue.append((ITEM_WRITE,) + tuple(write))
        locks[future_obj].queue.append((ITEM_RECORD, payload, origin, seqno))
        rts.switch.arm_lag_probe(node_id, future_obj)

    def _drop_own_barriers(self, node_id: int, locks, txn_id: int,
                           entries) -> None:
        for sub in entries:
            entry = locks.get(sub[1])
            if (entry is not None and entry.owner == txn_id
                    and entry.mode == MODE_BARRIER):
                self._release(node_id, locks, sub[1])

    def _release(self, node_id: int, locks, obj_id: int) -> None:
        queue = locks.pop(obj_id).queue
        if queue:
            self._replay(node_id, locks, obj_id, queue)

    def _replay(self, node_id: int, locks, obj_id: int,
                items: List[Tuple[Any, ...]]) -> None:
        """Replay a released lock's FIFO queue in delivery order.

        Every item makes its own deferral decision, exactly as if it were
        delivered fresh: a replayed record may re-lock the object (a queued
        prepare voting ready, or a re-deferral), and blanket-migrating the
        rest of the queue behind it would be wrong — the new lock's own
        outcome record may be among the remaining items, and it must
        release that lock, not queue behind it.  An item whose decision is
        "queue behind the lock now on this object" is handed over as it
        is, without the trip through its handler.
        """
        rts = self.rts
        manager, node, _ = self._members[node_id]
        for item in items:
            entry = locks.get(obj_id)
            if item[0] == ITEM_WRITE:
                if entry is not None:
                    entry.queue.append(item)
                    rts.stats.txn_deferred_writes += 1
                else:
                    rts._apply_one(node_id, manager, node, obj_id, *item[1:])
            elif entry is not None and self._queues_behind(
                    node_id, obj_id, entry, item[1]):
                entry.queue.append(item)
            else:
                _, payload, origin, seqno = item
                self.handlers[payload[0]](node_id, payload, origin, seqno)

    def _queues_behind(self, node_id: int, obj_id: int, entry: LockEntry,
                       payload: Tuple[Any, ...]) -> bool:
        """Would this record, queued on ``obj_id``, only queue again behind
        ``entry``, the lock now on that object?  (The handlers' own
        deferral tests, for the object each would look at first.)"""
        kind, txn_id = payload[0], payload[1]
        own_barrier = entry.owner == txn_id and entry.mode == MODE_BARRIER
        if kind == KIND_PREPARE:
            marks = self._tombstones.get(txn_id)
            return not own_barrier and (marks is None
                                        or (node_id, obj_id) not in marks)
        if kind == KIND_ATOMIC:
            return payload[2][0][1] == obj_id and not own_barrier
        return payload[3][0] == obj_id and (entry.owner != txn_id
                                            or own_barrier)
