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

from typing import Any, List, Tuple

from ..errors import RtsError
from ..rts.object_model import RETRY, execute_operation
from ..rts.switch import FUTURE, MIGRATED, STALE
from .locks import (
    ITEM_RECORD,
    ITEM_WRITE,
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


class TxnParticipant:
    """Processes delivered ``txn-*`` records at one member."""

    def __init__(self, layer) -> None:
        self.layer = layer

    # -- entry points ---------------------------------------------------

    def process(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                seqno: int) -> None:
        kind = payload[0]
        if kind == KIND_ATOMIC:
            self._on_atomic(node_id, payload, origin, seqno)
        elif kind == KIND_PREPARE:
            self._on_prepare(node_id, payload, origin, seqno)
        elif kind in (KIND_DECIDE, KIND_OUTCOME):
            self._on_outcome(node_id, payload, origin, seqno)
        else:  # pragma: no cover - routing bug
            raise RtsError(f"unknown transaction record kind {payload[0]!r}")

    def defer_write(self, node_id: int, obj_id: int,
                    entry: Tuple[Any, ...]) -> bool:
        """Queue an ordinary delivered write behind a lock, if one exists.

        Called from ``_apply_one`` *before* its epoch checks: once a lock
        (prepared or barrier) exists on a member's object, everything
        delivered later for that object must replay after it, in FIFO
        order, regardless of its epoch stamp.
        """
        if self.layer.locks.get(node_id, obj_id) is None:
            return False
        self.layer.locks.enqueue(node_id, obj_id, (ITEM_WRITE,) + tuple(entry))
        self.layer.rts.stats.txn_deferred_writes += 1
        return True

    def on_switch_delivered(self, node_id: int, obj_id: int) -> None:
        """Replay an epoch barrier once the member delivered the switch."""
        entry = self.layer.locks.get(node_id, obj_id)
        if entry is None or entry.mode != MODE_BARRIER:
            return
        self.layer.locks.unlock(node_id, obj_id)
        self._replay(node_id, obj_id, list(entry.queue))

    # -- atomic fast path ----------------------------------------------

    def _on_atomic(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                   seqno: int) -> None:
        _, txn_id, entries, invocation_id = payload
        rts = self.layer.rts
        locks = self.layer.locks
        # Deferred behind any foreign lock: FIFO into the first locked
        # object's queue (lock state is order-determined, so every member
        # picks the same queue at the same position).
        for _index, obj_id, _op, _args, _kwargs, _epoch in entries:
            entry = locks.get(node_id, obj_id)
            if entry is None:
                continue
            if entry.mode == MODE_BARRIER and entry.owner == txn_id:
                continue  # this record's own epoch barrier
            locks.enqueue(node_id, obj_id, (ITEM_RECORD, payload, origin, seqno))
            return
        future_obj = None
        for _index, obj_id, _op, _args, _kwargs, epoch in entries:
            verdict = rts.switch.classify(node_id, obj_id, epoch)
            if verdict == STALE:
                # Sequenced after a switch it predates: dropped identically
                # at every member; the origin re-groups and re-issues.
                self._drop_own_barriers(node_id, txn_id, entries)
                if origin == node_id:
                    rts._resolve(invocation_id, MIGRATED)
                return
            if verdict == FUTURE and future_obj is None:
                future_obj = obj_id
        if future_obj is not None:
            self._defer_future(node_id, txn_id, future_obj,
                               [e[1] for e in entries], payload, origin, seqno)
            return
        manager = rts.managers[node_id]
        node = rts.cluster.node(node_id)
        cpu = rts.cost_model.cpu
        # All-or-nothing: validate every guard on clones first, touch the
        # real replicas only when the whole group passes.
        clones = {}
        failed = None
        for _index, obj_id, op_name, args, kwargs, _epoch in entries:
            handle = rts.handle(obj_id)
            op = handle.spec_class.operation_def(op_name)
            if not manager.has_valid_copy(obj_id):
                raise RtsError(
                    f"node {node_id} received transaction {txn_id} for object "
                    f"{obj_id} before its create message"
                )
            clone = clones.get(obj_id)
            if clone is None:
                clone = clones[obj_id] = manager.get(obj_id).instance.clone()
            if execute_operation(clone, op, args, kwargs) is RETRY:
                failed = obj_id
                break
        if failed is not None:
            node.charge_overhead(cpu.operation_dispatch_cost)
            self._drop_own_barriers(node_id, txn_id, entries)
            if origin == node_id:
                rts._resolve(invocation_id, (VOTE_RETRY, failed))
            return
        results = {}
        for index, obj_id, op_name, args, kwargs, _epoch in entries:
            op = rts.handle(obj_id).spec_class.operation_def(op_name)
            result = manager.apply_write(obj_id, op, args, kwargs,
                                         local_origin=origin == node_id)
            node.charge_overhead(cpu.operation_dispatch_cost
                                 + op.work_units * cpu.work_unit_time)
            rts.history.record_write(node_id, obj_id, op_name, args, seqno,
                                     manager.get(obj_id).version)
            results[index] = result
        # Own epoch barriers release only now: their queued work was
        # delivered after this record, so it replays after the applies.
        self._drop_own_barriers(node_id, txn_id, entries)
        if origin == node_id:
            rts._resolve(invocation_id, (VOTE_READY, results))

    # -- 2PC prepare ----------------------------------------------------

    def _on_prepare(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                    seqno: int) -> None:
        _, txn_id, obj_id, epoch, sub_ops, invocation_id = payload
        rts = self.layer.rts
        locks = self.layer.locks
        if locks.outcome_at(node_id, txn_id, obj_id) is not None:
            # An outcome naming this object was sequenced ahead of this
            # prepare in the same shard order (the coordinator died with
            # the prepare in flight): it is void everywhere.
            return
        entry = locks.get(node_id, obj_id)
        if entry is not None and not (entry.mode == MODE_BARRIER
                                      and entry.owner == txn_id):
            locks.enqueue(node_id, obj_id, (ITEM_RECORD, payload, origin, seqno))
            return
        verdict = rts.switch.classify(node_id, obj_id, epoch)
        if verdict == STALE:
            self._drop_own_barrier(node_id, txn_id, obj_id)
            if origin == node_id:
                rts._resolve(invocation_id, MIGRATED)
            return
        if verdict == FUTURE:
            self._defer_future(node_id, txn_id, obj_id, [obj_id], payload,
                               origin, seqno)
            return
        self._drop_own_barrier(node_id, txn_id, obj_id)
        manager = rts.managers[node_id]
        node = rts.cluster.node(node_id)
        cpu = rts.cost_model.cpu
        if not manager.has_valid_copy(obj_id):
            raise RtsError(
                f"node {node_id} received prepare of transaction {txn_id} for "
                f"object {obj_id} before its create message"
            )
        handle = rts.handle(obj_id)
        clone = manager.get(obj_id).instance.clone()
        ready = True
        for _index, op_name, args, kwargs in sub_ops:
            op = handle.spec_class.operation_def(op_name)
            if execute_operation(clone, op, args, kwargs) is RETRY:
                ready = False
                break
        node.charge_overhead(cpu.operation_dispatch_cost)
        if ready:
            # Stash the sub-operations under the lock; they apply when the
            # outcome record releases it.  Conflicting work delivered in
            # the meantime defers into the lock's queue (never rejected),
            # so per-client FIFO holds across the prepared window.
            locks.lock(node_id, obj_id, txn_id, MODE_PREPARED,
                       stash=tuple(sub_ops))
        if origin == node_id:
            rts._resolve(invocation_id,
                         (VOTE_READY if ready else VOTE_RETRY, obj_id))

    # -- 2PC decide / outcome -------------------------------------------

    def _on_outcome(self, node_id: int, payload: Tuple[Any, ...], origin: int,
                    seqno: int) -> None:
        kind, txn_id, outcome, objs, invocation_id = payload
        rts = self.layer.rts
        locks = self.layer.locks
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
            entry = locks.get(node_id, obj_id)
            if entry is not None and (entry.owner != txn_id
                                      or entry.mode == MODE_BARRIER):
                locks.enqueue(node_id, obj_id,
                              (ITEM_RECORD, payload, origin, seqno))
                return
        desc = self.layer.descs.get(txn_id)
        if kind == KIND_DECIDE and desc is not None and desc.outcome is None:
            # First decide record in the decision shard's order wins —
            # identical at every member, because this assignment happens at
            # the same order position everywhere.
            desc.outcome = outcome
        final = desc.outcome if (kind == KIND_DECIDE
                                 and desc is not None
                                 and desc.outcome is not None) else outcome
        locks.mark_outcome(node_id, txn_id, objs, final)
        manager = rts.managers[node_id]
        node = rts.cluster.node(node_id)
        cpu = rts.cost_model.cpu
        node.charge_overhead(cpu.operation_dispatch_cost)
        for obj_id in objs:
            entry = locks.get(node_id, obj_id)
            if entry is None or entry.owner != txn_id:
                continue  # voted retry here: nothing stashed, nothing held
            locks.unlock(node_id, obj_id)
            if final == OUTCOME_COMMIT:
                for index, op_name, args, kwargs in entry.stash:
                    op = rts.handle(obj_id).spec_class.operation_def(op_name)
                    result = manager.apply_write(
                        obj_id, op, args, kwargs,
                        local_origin=origin == node_id)
                    node.charge_overhead(cpu.operation_dispatch_cost
                                         + op.work_units * cpu.work_unit_time)
                    rts.history.record_write(node_id, obj_id, op_name, args,
                                             seqno,
                                             manager.get(obj_id).version)
                    if desc is not None:
                        desc.results[index] = result
            self._replay(node_id, obj_id, list(entry.queue))
        if origin == node_id:
            rts._resolve(invocation_id, None)

    # -- deferral machinery ---------------------------------------------

    def _defer_future(self, node_id: int, txn_id: int, future_obj: int,
                      obj_ids: List[int], payload: Tuple[Any, ...],
                      origin: int, seqno: int) -> None:
        """Barrier a record that outran this member's epoch.

        A barrier lock lands on *every* object of the record (members that
        never lagged interleave later deliveries after the record, so the
        lagging member must queue them too), earlier future-deferred
        ordinary writes are absorbed ahead of the record, and the record
        itself queues on the object whose switch it awaits.
        """
        rts = self.layer.rts
        locks = self.layer.locks
        for obj_id in obj_ids:
            if locks.get(node_id, obj_id) is not None:
                continue  # already barriered by an earlier deferral
            entry = locks.lock(node_id, obj_id, txn_id, MODE_BARRIER)
            for write in rts.switch.take_future_writes(node_id, obj_id):
                entry.queue.append((ITEM_WRITE,) + tuple(write))
        locks.enqueue(node_id, future_obj, (ITEM_RECORD, payload, origin, seqno))
        rts.switch.arm_lag_probe(node_id, future_obj)

    def _drop_own_barrier(self, node_id: int, txn_id: int, obj_id: int) -> None:
        locks = self.layer.locks
        entry = locks.get(node_id, obj_id)
        if (entry is not None and entry.owner == txn_id
                and entry.mode == MODE_BARRIER):
            locks.unlock(node_id, obj_id)
            self._replay(node_id, obj_id, list(entry.queue))

    def _drop_own_barriers(self, node_id: int, txn_id: int, entries) -> None:
        for _index, obj_id, _op, _args, _kwargs, _epoch in entries:
            self._drop_own_barrier(node_id, txn_id, obj_id)

    def _replay(self, node_id: int, obj_id: int,
                items: List[Tuple[Any, ...]]) -> None:
        """Replay a released lock's FIFO queue in delivery order.

        Every item goes back through its normal dispatch path: a replayed
        record may re-lock the object (a queued prepare voting ready, or a
        re-deferral), and each later item then makes its own deferral
        decision against the new lock — exactly as if it were delivered
        fresh.  Blanket-migrating the rest of the queue would be wrong:
        the new lock's own outcome record may be among the remaining
        items, and it must release that lock, not queue behind it.
        """
        rts = self.layer.rts
        for item in items:
            if item[0] == ITEM_WRITE:
                (op_name, args, kwargs, invocation_id, epoch, origin,
                 seqno) = item[1:]
                rts._apply_one(node_id, rts.managers[node_id],
                               rts.cluster.node(node_id), obj_id, op_name,
                               args, kwargs, invocation_id, epoch, origin,
                               seqno)
            else:
                _, payload, origin, seqno = item
                self.process(node_id, payload, origin, seqno)
