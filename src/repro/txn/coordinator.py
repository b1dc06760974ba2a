"""Coordinator side of a transaction: grouping, prepares, decide, apply.

One ``transact()`` call runs entirely on the invoking client's process.
Participants are acquired in **ascending object-id order** — ordered
prepares through each broadcast participant's shard and seat locks on each
primary-copy participant, interleaved in the same global order — so every
concurrent coordinator walks the one resource order and deadlock is
structurally impossible.

The commit point is the first ``txn-decide`` record in the decision
shard's total order (the shard of the lowest broadcast participant); with
no broadcast participant at all, it is the durable descriptor's outcome
assignment.  Everything after the commit point is replay-safe: outcome
records are idempotent per member and primary applies carry stable write
ids, which is exactly what lets the crash-recovery pass finish the job
when the coordinator's node dies mid-protocol.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..amoeba.message import estimate_size
from ..errors import ConfigurationError, RtsError, TransactionAborted
from ..rts.object_model import RETRY
from ..rts.policy import (
    FIXED_POLICIES,
    MECHANISM_BROADCAST,
    MECHANISM_PRIMARY,
    PREPARE_ORDER,
)
from ..rts.switch import MIGRATED, _PendingWrite
from .participant import guard_vote
from .records import (
    KIND_ATOMIC,
    KIND_DECIDE,
    KIND_OUTCOME,
    KIND_PREPARE,
    OUTCOME_ABORT,
    OUTCOME_COMMIT,
    TxnDescriptor,
    VOTE_READY,
    VOTE_RETRY,
    txn_wid,
)

#: Attempt results (internal to this module).
_COMMITTED = "committed"
_MIGRATED = "migrated"
_GUARD = "guard"
_RACED = "raced"


class TxnCoordinator:
    """Runs the commit protocol for one ``HybridRts``."""

    def __init__(self, layer) -> None:
        self.layer = layer

    # -- public entry ---------------------------------------------------

    def transact(self, proc, ops, on_guard: str = "retry") -> List[Any]:
        rts = self.layer.rts
        if on_guard not in ("retry", "abort"):
            raise ConfigurationError(
                f"on_guard must be 'retry' or 'abort', not {on_guard!r}")
        node = rts._node_of(proc)
        normalized = self._normalize(node.node_id, ops)
        while True:
            status, detail = self._attempt(proc, node, normalized)
            if status == _COMMITTED:
                return detail
            if status in (_MIGRATED, _RACED):
                # Routing moved under the attempt (or a recovery pass for a
                # presumed-dead coordinator raced it): re-resolve and retry.
                continue
            # A guard rejected the group everywhere (all-or-nothing: no
            # participant applied anything).
            if on_guard == "abort":
                rts.stats.txn_aborts += 1
                raise TransactionAborted(
                    f"transaction aborted: guard rejected operation on "
                    f"object {detail}")
            rts.stats.txn_retries += 1
            if (detail is not None
                    and rts._mechanism_of(detail) == MECHANISM_BROADCAST
                    and rts.managers[node.node_id].has_valid_copy(detail)):
                rts._wait_for_change(proc, node.node_id, detail)
            else:
                rts.back_off(proc)

    # -- one attempt ----------------------------------------------------

    def _normalize(self, node_id: int, ops) -> List[Tuple[int, str, Tuple[Any, ...],
                                            Dict[str, Any], int]]:
        rts = self.layer.rts
        if not ops:
            raise ConfigurationError("transact() needs at least one operation")
        normalized = []
        for entry in ops:
            if len(entry) == 2:
                handle, op_name = entry
                args, kwargs = (), {}
            elif len(entry) == 3:
                handle, op_name, args = entry
                kwargs = {}
            elif len(entry) == 4:
                handle, op_name, args, kwargs = entry
            else:
                raise ConfigurationError(
                    "transact() entries are (obj, op[, args[, kwargs]]) "
                    f"tuples, got {entry!r}")
            target = getattr(handle, "handle", handle)  # unwrap BoundObject
            obj_id = getattr(target, "obj_id", target)
            # Validate eagerly: an unknown operation must fail the call,
            # not poison a broadcast record.
            rts._site(node_id, obj_id, op_name)
            args, kwargs = tuple(args), dict(kwargs or {})
            # Sized here, once per transaction: a re-attempt re-sends the
            # same sub-operations.
            normalized.append((obj_id, op_name, args, kwargs,
                               estimate_size(args) + estimate_size(kwargs)))
        return normalized

    def _attempt(self, proc, node, ops) -> Tuple[str, Any]:
        rts = self.layer.rts
        txn_id = next(self.layer.txn_ids)
        by_obj: Dict[int, List[Tuple[Any, ...]]] = {}
        sizes: Dict[int, int] = {}  # obj_id -> bytes of its sub-operations
        for index, (obj_id, op_name, args, kwargs, nbytes) in enumerate(ops):
            by_obj.setdefault(obj_id, []).append((index, op_name, args, kwargs))
            sizes[obj_id] = sizes.get(obj_id, 0) + nbytes
        desc = TxnDescriptor(txn_id=txn_id, coordinator_node=node.node_id,
                             op_count=len(ops),
                             participants=tuple(sorted(by_obj)))
        self.layer.register(desc)

        # Snapshot each participant's prepare mode (its policy's answer to
        # "how is this object held prepared"); objects migrating under a
        # snapshot are caught by the epoch stamps / seat re-checks below
        # and bounce the attempt (pins() stops *new* reconfigurations the
        # moment the descriptor registered).
        order_objs = []
        seat_objs = []
        for obj_id in desc.participants:
            policy = FIXED_POLICIES[rts._policy_by_obj[obj_id]]
            if policy.prepare_mode == PREPARE_ORDER:
                order_objs.append(obj_id)
            else:
                seat_objs.append(obj_id)
                for index, op_name, args, kwargs in by_obj[obj_id]:
                    desc.primary_ops.append((index, obj_id, op_name, args,
                                             kwargs))

        if not seat_objs:
            shards = {rts.shard_of(rts.handle(obj_id)) for obj_id in order_objs}
            if len(shards) == 1:
                return self._attempt_atomic(proc, node, desc, by_obj, sizes,
                                            order_objs, shards.pop())
        return self._attempt_two_phase(proc, node, desc, by_obj, sizes,
                                       seat_objs)

    # -- same-shard fast path -------------------------------------------

    def _attempt_atomic(self, proc, node, desc: TxnDescriptor, by_obj, sizes,
                        order_objs, shard: int) -> Tuple[str, Any]:
        """All participants broadcast-managed on one shard: a single
        ordered record carries every sub-operation, lock-free.

        ``shard`` was read by ``_attempt`` with no suspension since, so it
        is the epoch stamps' back-to-back partner without asking again.
        """
        rts = self.layer.rts
        entries = []
        for obj_id in order_objs:
            epoch = rts.switch.epoch_of(obj_id)
            if rts._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                self.layer.complete(desc, committed=False)
                return (_MIGRATED, None)
            for index, op_name, args, kwargs in by_obj[obj_id]:
                entries.append((index, obj_id, op_name, args, kwargs, epoch))
        entries.sort()
        group = rts.router.group_for(shard)
        first_obj = order_objs[0]
        vote = self._broadcast_record(
            proc, node, group,
            (KIND_ATOMIC, desc.txn_id, tuple(entries)),
            size=16 + sum(sizes.values()), obj_id=first_obj,
            epoch=rts.switch.epoch_of(first_obj))
        if not isinstance(vote, tuple):
            # MIGRATED: a switch was sequenced ahead of the record.
            self.layer.complete(desc, committed=False)
            return (_MIGRATED, None)
        if vote[0] == VOTE_RETRY:
            self.layer.complete(desc, committed=False)
            return (_GUARD, vote[1])
        desc.outcome = OUTCOME_COMMIT
        results = vote[1]
        self.layer.complete(desc, committed=True, same_shard=True)
        return (_COMMITTED, [results[i] for i in range(desc.op_count)])

    # -- cross-shard / mixed-mechanism 2PC ------------------------------

    def _attempt_two_phase(self, proc, node, desc: TxnDescriptor, by_obj,
                           sizes, seat_objs) -> Tuple[str, Any]:
        rts = self.layer.rts
        for obj_id in desc.participants:
            if obj_id in seat_objs:
                self._acquire_seat(proc, desc, obj_id)
                vote = self._eval_primary(proc, desc, obj_id, by_obj[obj_id])
            else:
                vote = self._broadcast_prepare(proc, node, desc, obj_id,
                                               by_obj[obj_id], sizes[obj_id])
            if not isinstance(vote, tuple):
                self._abort_attempt(proc, node, desc)
                return (_MIGRATED, None)
            if vote[0] == VOTE_RETRY:
                self._abort_attempt(proc, node, desc)
                return (_GUARD, vote[1])

        # Every participant voted ready: commit.  The decide record in the
        # decision shard's order is the commit point; with no broadcast
        # participant the descriptor itself is (it models the coordinator's
        # durable log).
        if desc.decision_shard is not None:
            objs = desc.prepared_shards[desc.decision_shard]
            self._broadcast_record(
                proc, node, rts.router.group_for(desc.decision_shard),
                (KIND_DECIDE, desc.txn_id, OUTCOME_COMMIT, objs),
                size=CONTROL_RECORD_SIZE)
            desc.outcome_sent.add(desc.decision_shard)
            if desc.outcome != OUTCOME_COMMIT:
                # A recovery pass for this (falsely presumed dead)
                # coordinator won the decision order with an abort; the
                # attempt applied nothing.  The recovery pass owns the
                # outcome propagation and descriptor completion — release
                # only the seats and retry from scratch.
                self._release_seats(desc)
                return (_RACED, None)
        else:
            desc.outcome = OUTCOME_COMMIT

        self._propagate_outcome(proc, node, desc)
        self._apply_primary_ops(proc, node, desc)
        self._release_seats(desc)
        results = [desc.results[i] for i in range(desc.op_count)]
        self.layer.complete(desc, committed=True, same_shard=False)
        return (_COMMITTED, results)

    def _abort_attempt(self, proc, node, desc: TxnDescriptor) -> None:
        """Abort before the commit point: release everything acquired.

        Every shard that may carry a prepare gets an abort outcome record
        (sequenced behind the prepare in the same order, so locks release
        at the same position everywhere); seats release directly.
        """
        desc.outcome = OUTCOME_ABORT
        self._propagate_outcome(proc, node, desc)
        self._release_seats(desc)
        self.layer.complete(desc, committed=False)

    def _propagate_outcome(self, proc, node, desc: TxnDescriptor) -> None:
        """Carry the fixed outcome into every prepared shard still owed it
        (the coordinator's pass and the crash-recovery pass alike)."""
        rts = self.layer.rts
        for shard in sorted(desc.prepared_shards):
            if shard in desc.outcome_sent:
                continue
            objs = desc.prepared_shards[shard]
            self._broadcast_record(
                proc, node, rts.router.group_for(shard),
                (KIND_OUTCOME, desc.txn_id, desc.outcome, objs),
                size=CONTROL_RECORD_SIZE)
            desc.outcome_sent.add(shard)

    def _apply_primary_ops(self, proc, node, desc: TxnDescriptor) -> None:
        """Apply seat-managed sub-operations after the commit point (a
        recovery pass re-applies them the same way).

        Reuses the ordinary primary-write path under a transaction write
        id, inheriting its exactly-once behaviour across primary takeovers
        and seat relocations; the guard was validated under the seat lock,
        so a rejection here means protocol breakage, not contention.
        """
        rts = self.layer.rts
        for index, obj_id, op_name, args, kwargs in desc.primary_ops:
            result = rts.primary.write(
                proc, node.node_id, rts.handle(obj_id),
                rts._site(node.node_id, obj_id, op_name).op, args, kwargs,
                wid=txn_wid(desc.txn_id, index, obj_id))
            if result is RETRY:
                raise RtsError(
                    f"transaction {desc.txn_id}: guard of {op_name!r} on "
                    f"object {obj_id} failed at commit despite a ready vote")
            desc.results[index] = result

    # -- broadcast participants -----------------------------------------

    def _broadcast_prepare(self, proc, node, desc: TxnDescriptor, obj_id: int,
                           sub_ops, nbytes: int) -> Any:
        """One ordered prepare per broadcast participant.

        Epoch and shard are stamped back to back (no suspension between
        them, same discipline as ``_broadcast_write``), so a record always
        rides the group matching its stamp; a move sequenced ahead of it
        stales the record identically everywhere and the vote comes back
        MIGRATED.
        """
        rts = self.layer.rts
        epoch = rts.switch.epoch_of(obj_id)
        if rts._mechanism_of(obj_id) != MECHANISM_BROADCAST:
            return MIGRATED
        shard = rts.shard_of(rts.handle(obj_id))
        group = rts.router.group_for(shard)
        if desc.decision_shard is None:
            desc.decision_shard = shard
        desc.prepared_shards[shard] = (desc.prepared_shards.get(shard, ())
                                       + (obj_id,))
        return self._broadcast_record(
            proc, node, group,
            (KIND_PREPARE, desc.txn_id, obj_id, epoch, tuple(sub_ops)),
            size=16 + nbytes, obj_id=obj_id, epoch=epoch)

    def _broadcast_record(self, proc, node, group, payload, size: int,
                          obj_id=None, epoch: int = 0) -> Any:
        """Broadcast one txn record and await its local delivery result."""
        proc.absorb_overhead(node.drain_overhead())
        result = self.layer.rts.await_delivery(
            proc, group.member(node.node_id).broadcast, payload, size,
            _PendingWrite(proc=proc, obj_id=obj_id, origin=node.node_id,
                          epoch=epoch))
        proc.absorb_overhead(node.drain_overhead())
        return result

    # -- primary-copy participants --------------------------------------

    def _acquire_seat(self, proc, desc: TxnDescriptor, obj_id: int) -> None:
        """Pin a primary participant's seat and drain in-flight commits."""
        rts = self.layer.rts
        while not self.layer.seats.try_acquire(obj_id, desc.txn_id):
            self.layer.seats.wait(obj_id, proc)
            proc.suspend()
        desc.seats_held.append(obj_id)
        while True:
            # Wait out any reconfiguration that slipped past pins() before
            # this descriptor registered; none can start afterwards.
            if not rts.switch.is_stable(obj_id):
                proc.hold(rts.cost_model.cpu.protocol_cost)
                continue
            primary = rts.directory.primary_of(obj_id)
            if not rts.cluster.node(primary).alive:
                rts.takeover.await_recovery(proc, obj_id)
                continue
            replica = rts.managers[primary].replicas.get(obj_id)
            if replica is not None and replica.inflight:
                proc.hold(rts.cost_model.cpu.protocol_cost)
                continue
            if replica is not None and replica.valid and replica.locked:
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
                continue
            return

    def _eval_primary(self, proc, desc: TxnDescriptor, obj_id: int,
                      sub_ops) -> Any:
        """Validate a seat participant's guards against the primary state.

        Runs with the seat pinned and in-flight commits drained: between
        this evaluation and the post-commit apply nothing else can touch
        the primary copy, so a passing guard here still passes there.
        """
        rts = self.layer.rts
        while True:
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                return MIGRATED
            primary = rts.directory.primary_of(obj_id)
            if not rts.cluster.node(primary).alive:
                rts.takeover.await_recovery(proc, obj_id)
                continue
            manager = rts.managers[primary]
            if not manager.has_valid_copy(obj_id):
                proc.hold(rts.cost_model.cpu.protocol_cost)
                continue
            proc.advance(rts.cost_model.cpu.protocol_cost)
            replica = manager.get(obj_id)
            rejected = guard_vote([
                (obj_id, replica, rts._site(primary, obj_id, op_name).op, args, kwargs)
                for _index, op_name, args, kwargs in sub_ops])
            return (VOTE_READY if rejected is None else VOTE_RETRY, obj_id)

    def _release_seats(self, desc: TxnDescriptor) -> None:
        for obj_id in desc.seats_held:
            for waiter in self.layer.seats.release(obj_id, desc.txn_id):
                waiter.wake()
        desc.seats_held = []


#: Decide/outcome records carry object ids only.
CONTROL_RECORD_SIZE = 24
