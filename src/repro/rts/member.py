"""One machine's end of one shard's total order: where an ordered write applies.

The broadcast mechanism applies every write at every replica at the same
point of one total order.  :class:`ShardMember` is that rule written once:
its bound :meth:`~ShardMember.on_deliver` is the group member's delivery
handler, and :meth:`~ShardMember.apply` decides what one delivered write
does there (defer it behind a transaction's lock, drop or park it by the
switch epoch, or apply it).  Every other path that applies an ordered write
calls back into the same member: the switch engine replaying writes that
outran their switch, and the transaction participant replaying a released
lock's queue and committing its own sub-operations through
:meth:`~ShardMember.commit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import RtsError
from .object_model import RETRY
from .p2p.fanout import FUTURE
from .switch import MIGRATED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.protocol import DeliveredMessage
    from ..amoeba.node import Node
    from .base import CallSite
    from .hybrid import HybridRts
    from .manager import Replica


class ShardMember:
    """One machine's end of one shard's order: a record arrives with the
    machine's node, manager and node id already resolved."""

    __slots__ = ("rts", "node_id", "key", "node", "manager", "awaiting_seed")

    def __init__(self, rts: "HybridRts", node: "Node", shard: int) -> None:
        self.rts = rts
        self.node_id = node.node_id
        self.key = (node.node_id, shard)
        self.node = node
        self.manager = rts.managers[node.node_id]
        #: The membership's set of (node, shard) rejoins awaiting their seed.
        self.awaiting_seed = rts.membership.awaiting_seed

    def on_deliver(self, record: "DeliveredMessage") -> None:
        """Runs at every member, in per-shard total order."""
        payload = record.payload
        kind = payload[0]
        awaiting = self.awaiting_seed
        if (
            awaiting
            and self.key in awaiting
            and not (kind == "rejoin" and payload[1] == self.node_id)
        ):
            # This member re-entered the order at its rejoin anchor but the
            # out-of-band seed (the state covering everything before the
            # anchor) has not arrived yet; buffer post-anchor deliveries
            # for ordered replay on top of the seeded state.  Only the
            # member's own anchor passes through (it wakes the rejoin
            # thread and carries no state).
            self.rts.membership.seed_buffer.setdefault(self.key, []).append(record)
            return
        if kind == "op":  # a plain write, applied in this one call
            _, obj_id, op_name, args, kwargs, epoch, invocation_id = payload
            self.apply(
                obj_id, op_name, args, kwargs, epoch, invocation_id, record.origin, record.seqno
            )
            return
        try:
            deliver = self.rts._deliver_kinds[kind]
        except (KeyError, TypeError):
            raise RtsError(f"unknown broadcast RTS payload kind {kind!r}") from None
        deliver(self, record)

    def deliver_create(self, record: "DeliveredMessage") -> None:
        _, obj_id, spec_class, args, kwargs, invocation_id = record.payload
        rts, manager = self.rts, self.manager
        if not manager.has_valid_copy(obj_id):
            manager.install(obj_id, rts.handle(obj_id).name, spec_class.create(args, kwargs))
            rts.stats.replicas_created += 1
        self.node.charge_overhead(rts.cost_model.cpu.operation_dispatch_cost)
        rts._wake_replica_waiters(self.node_id, obj_id)
        if record.origin == self.node_id:
            rts._resolve(invocation_id, None)

    def deliver_batch(self, record: "DeliveredMessage") -> None:
        origin, seqno = record.origin, record.seqno
        for _, obj_id, op_name, args, kwargs, epoch, invocation_id in record.payload[1]:
            self.apply(obj_id, op_name, args, kwargs, epoch, invocation_id, origin, seqno)
        if origin == self.node_id:
            batcher = self.rts._batchers.get(self.key)
            if batcher is not None:
                batcher.on_batch_delivered()

    def apply(
        self, obj_id: int, op_name: str, args, kwargs, epoch, invocation_id, origin, seqno
    ) -> None:
        """Apply one delivered write, fresh from the order or replayed.

        A parked or deferred write is kept as the tuple of this method's
        arguments after ``obj_id``, so a replay is ``apply(obj_id, *write)``.
        """
        rts = self.rts
        node_id = self.node_id
        if rts._txn_layer is not None and rts._txn_layer.defer_write(
            self, obj_id, (op_name, args, kwargs, epoch, invocation_id, origin, seqno)
        ):
            # A transaction holds this member's object (prepared or epoch
            # barrier): the write replays FIFO when the lock releases —
            # before any epoch check, because the lock's release position
            # in the order is what decides the write's fate everywhere.
            return
        switch = rts.switch
        cursor = switch.cursors[node_id].get(obj_id)
        if epoch != (cursor.delivered if cursor is not None else 0):
            if switch.classify(node_id, obj_id, epoch) == FUTURE:
                # A post-switch write outran this member's delivery of the
                # switch itself — possible only across *groups* (a shard
                # move's destination order is not synchronised with its
                # source order) or when a new-epoch write is sequenced just
                # ahead of its own switch.  It applies, in its own group's
                # order, the moment the local switch lands; every member
                # decides alike at the same position of that order, so the
                # object's global write order stays identical everywhere.
                switch.cursors[node_id][obj_id].future_writes.append(
                    (op_name, args, kwargs, epoch, invocation_id, origin, seqno)
                )
                switch.arm_lag_probe(node_id, obj_id)
            elif origin == node_id:
                # The write was sequenced after a switch it predates.  Every
                # member drops it at the same point in the total order; the
                # origin re-issues it under the object's new policy or route.
                rts._resolve(invocation_id, MIGRATED)
            return
        site = rts._sites.get((node_id, obj_id, op_name)) or rts._site(node_id, obj_id, op_name)
        result = self.commit(self.replica(obj_id), site, args, kwargs, seqno)
        if origin == node_id:
            rts._resolve(invocation_id, result)

    def commit(self, replica: "Replica", site: "CallSite", args, kwargs, seqno: int) -> Any:
        """Run one ordered write on this member's replica, charge its apply
        cost and record it in the history; returns the operation's result."""
        result = self.manager.apply_write_to(replica, site.op, args, kwargs)
        # Applying the update costs CPU on every machine that holds a
        # replica: this is the overhead that limits ACP's speedup.
        self.node.charge_overhead(site.apply_cost)
        history = self.rts.history
        if history.enabled and result is not RETRY:
            history.record_write(
                self.node_id, replica.obj_id, site.op.name, args, seqno, replica.version
            )
        return result

    def replica(self, obj_id: int) -> "Replica":
        """This member's valid replica of ``obj_id``.

        Per-shard total order guarantees the create precedes every record
        naming the object, so a missing replica is a protocol error worth
        failing on.
        """
        replica = self.manager.replicas.get(obj_id)
        if replica is None or not replica.valid:
            raise RtsError(
                f"node {self.node_id} received a record for object {obj_id} "
                "before its create message"
            )
        return replica
