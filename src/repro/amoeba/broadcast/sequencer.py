"""The sequencer: assigns the global total order and answers retransmissions.

One node of the broadcast group acts as the sequencer ("like a committee
electing a chairman").  For the PB protocol it receives the full data from
the sender and broadcasts it with the next sequence number; for the BB
protocol it observes the sender's own broadcast and broadcasts a short
Accept.  Numbering, the bounded *history buffer* from which missing messages
are retransmitted point-to-point on request, and duplicate suppression live
in the I/O-free :class:`~repro.amoeba.broadcast.protocol.SequencerLog`;
this module adds what is driven around it: the service queue, CPU charges
and the sync heartbeat.  A group builds a sequencer only on a node it hosts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Iterable, Optional, Tuple

from .protocol import (
    CONTROL_MESSAGE_SIZE,
    KIND_ACCEPT,
    KIND_DATA,
    KIND_RETRANSMIT,
    KIND_SYNC,
    DeliveredMessage,
    MessageId,
    SequencerLog,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .group import BroadcastGroup, GroupNode

#: Idle-time sync heartbeats sent after the last sequenced message (bounded
#: so the simulation's event queue can drain).
SYNC_REPEATS = 5


class Sequencer:
    """Sequencer state machine, hosted on one node of the group."""

    def __init__(self, group: "BroadcastGroup", node: "GroupNode") -> None:
        self.group = group
        self.node = node
        #: Numbering, retained history and the uid -> seqno table.
        self.log = SequencerLog(group.params.history_size)
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        #: FIFO of sequenced messages awaiting their ordered (re)broadcast:
        #: the sequencer is a queueing server with ``sequencing_cost`` service
        #: time per message, which is what gives a lone sequencer a hard
        #: throughput ceiling (and sharding something real to break).
        self._service_queue: Deque[Tuple[DeliveredMessage, bool]] = deque()
        self._service_timer: Optional[int] = None
        self.max_queue_depth = 0
        self._sync_timer: Optional[int] = None
        self._sync_remaining = 0

    # ------------------------------------------------------------------ #
    # Sequencing
    # ------------------------------------------------------------------ #

    def handle_pb_request(self, origin: int, uid: MessageId, payload: Any, size: int) -> None:
        """PB path: sender shipped us the data point-to-point; order and broadcast it."""
        self._sequence(origin, uid, payload, size, accept=False)

    def handle_bb_data(self, origin: int, uid: MessageId, payload: Any, size: int) -> None:
        """BB path: the data was broadcast by the sender; assign a number and Accept it."""
        self._sequence(origin, uid, payload, size, accept=True)

    def _sequence(self, origin: int, uid: MessageId, payload: Any, size: int, accept: bool) -> None:
        existing = self.log.seqno_of(uid)
        if existing is None:
            record = self._record(origin, uid, payload, size)
        else:
            # A retry of a message we already sequenced: rebroadcast it so
            # whoever missed it (including possibly the sender) catches up.
            self.duplicates_suppressed += 1
            record = self.log.get(existing)
            if record is None:
                return
        self._dispatch_broadcast(record, accept)

    # ------------------------------------------------------------------ #
    # Service queue (the sequencer's own processing capacity)
    # ------------------------------------------------------------------ #

    def _dispatch_broadcast(self, record: DeliveredMessage, accept: bool) -> None:
        """Send — or queue — the ordered (re)broadcast of ``record``.

        With ``sequencing_cost`` at 0 (the calibrated default) the broadcast
        leaves immediately.  Otherwise sequence numbers are still assigned
        at arrival (the order is fixed), but the broadcast leaves only
        after the sequencer has *worked* on the message for
        ``sequencing_cost`` virtual seconds; messages arriving faster than
        that rate queue up — the single-sequencer throughput ceiling the
        sharding layer exists to break.

        The same ``sequencing_cost`` is also charged to the node as CPU
        overhead (see :meth:`_record`): one unit of ordering work both
        delays the message pipeline *and* steals CPU from co-located
        application processes.  That approximates a single CPU shared by
        the protocol and the applications without a full scheduler model;
        it is applied identically at every shard count, so cross-shard
        comparisons remain apples-to-apples.
        """
        if self.node.cost_model.cpu.sequencing_cost <= 0.0:
            self._broadcast(record, accept)
            return
        self._service_queue.append((record, accept))
        depth = len(self._service_queue)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self._service_timer is None:
            self._service_timer = self.node.set_timer(
                self.node.cost_model.cpu.sequencing_cost, self._serve_next
            )

    def retire(self) -> None:
        """Stop serving: another sequencer has taken over this group.

        A dethroned-but-alive sequencer must not keep broadcasting queued
        entries — their sequence numbers get reassigned by the successor,
        and two payloads under one seqno would break total order.  Senders
        whose messages die with the queue recover through their own
        retries against the new sequencer.
        """
        if self._service_timer is not None:
            self.node.cancel_timer(self._service_timer)
            self._service_timer = None
        self._service_queue.clear()
        if self._sync_timer is not None:
            self.node.cancel_timer(self._sync_timer)
            self._sync_timer = None

    def _serve_next(self) -> None:
        self._service_timer = None
        if self.group.sequencer is not self:
            # Superseded while the timer was in flight.
            self._service_queue.clear()
            return
        if self._service_queue:
            self._broadcast(*self._service_queue.popleft())
        # The broadcast's local delivery can re-enter _dispatch_broadcast
        # (e.g. a batcher flushing on delivery), which may have re-armed the
        # service timer already.
        if self._service_queue and self._service_timer is None:
            self._service_timer = self.node.set_timer(
                self.node.cost_model.cpu.sequencing_cost, self._serve_next
            )

    def _record(self, origin: int, uid: MessageId, payload: Any, size: int) -> DeliveredMessage:
        """Number the message and charge the ordering work for it."""
        record = self.log.append(origin, uid, payload, size)
        # Charge the sequencer CPU for ordering work beyond the plain receive:
        # number assignment, history-buffer retention, flow control.  Under
        # the queueing model (sequencing_cost > 0) this is the service time
        # that makes a lone sequencer the cluster-wide write ceiling (and
        # what sharding over several groups spreads out).
        cpu = self.node.cost_model.cpu
        self.node.charge_overhead(
            cpu.sequencing_cost if cpu.sequencing_cost > 0.0 else cpu.operation_dispatch_cost
        )
        self._arm_sync()
        return record

    # ------------------------------------------------------------------ #
    # Idle-time sync heartbeats (tail-loss recovery)
    # ------------------------------------------------------------------ #

    def _arm_sync(self) -> None:
        """(Re)start the bounded heartbeat sequence after sequencing activity.

        Heartbeats exist only to heal *tail* losses (a member missing the very
        last broadcast would otherwise never learn about it), so they are
        suppressed entirely on loss-free networks — this keeps the PB/BB
        bandwidth and interrupt counts exactly as the paper describes them.
        """
        if not self.group.cluster.network.lossy:
            return
        self._sync_remaining = SYNC_REPEATS
        if self._sync_timer is not None:
            self.node.cancel_timer(self._sync_timer)
        self._sync_timer = self.node.set_timer(self.group.retry_timeout, self._send_sync)

    def _send_sync(self) -> None:
        self._sync_timer = None
        if self.log.highest_assigned <= 0 or self.group.sequencer is not self:
            return
        msg = self.node.make_message(
            None,
            self.group.wire_kind(KIND_SYNC),
            size=CONTROL_MESSAGE_SIZE,
            seqno=self.log.highest_assigned,
        )
        self.node.send(msg)
        self._sync_remaining -= 1
        if self._sync_remaining > 0:
            self._sync_timer = self.node.set_timer(self.group.retry_timeout, self._send_sync)

    # ------------------------------------------------------------------ #
    # Outgoing traffic
    # ------------------------------------------------------------------ #

    def _broadcast(self, record: DeliveredMessage, accept: bool) -> None:
        """The ordered broadcast: a short Accept for data the members
        already hold (BB), or the data itself (PB)."""
        node = self.node
        if accept:
            msg = node.make_message(
                None,
                self.group.wire_kind(KIND_ACCEPT),
                size=CONTROL_MESSAGE_SIZE,
                seqno=record.seqno,
                origin=record.origin,
                uid=record.uid,
            )
        else:
            # The record itself is the message body: every member buffers,
            # retains and delivers this one object.
            msg = node.make_message(
                None, self.group.wire_kind(KIND_DATA), payload=record, size=record.size
            )
        node.send(msg)
        # Hardware broadcast does not loop back; deliver to the local member directly.
        self.group.member(node.node_id).local_sequenced_data(record)

    def handle_retransmit_request(self, requester: int, seqno: int) -> bool:
        """Unicast a missing message back to the member that asked for it.

        Returns True when the request was served from the history buffer,
        False when the message fell outside the (bounded) window — in which
        case a broadcast gap request can still be answered by an ordinary
        member's delivered history.
        """
        record = self.log.get(seqno)
        if record is None:
            # Outside the history window; nothing *we* can do (the paper's
            # protocol bounds the window by flow control).
            return False
        # Someone is lagging: keep heartbeating so further tail losses heal.
        self._arm_sync()
        self.retransmissions += 1
        self.node.send(
            self.node.make_message(
                requester, self.group.wire_kind(KIND_RETRANSMIT), payload=record, size=record.size
            )
        )
        return True

    # ------------------------------------------------------------------ #
    # Election support
    # ------------------------------------------------------------------ #

    def adopt_history(self, records: Iterable[DeliveredMessage]) -> None:
        """Seed the history buffer from the winning member's local state.

        Installed after an election so retransmit requests for messages the
        *old* sequencer ordered can still be answered.  Also re-primes
        duplicate suppression: a sender retrying a message that was already
        sequenced gets the original sequence number rebroadcast instead of a
        second one.
        """
        self.log.adopt(records)
        if len(self.log):
            self._arm_sync()

    @property
    def queue_depth(self) -> int:
        """Messages currently waiting for ordering service.

        Exported (with :attr:`max_queue_depth`, the high-water mark) as the
        load signal that batch-aware flow control and the shard-rebalancing
        planner read: a deep queue means this sequencer is the shard the
        senders should back off from — and the shard the rebalancer should
        move objects away from.
        """
        return len(self._service_queue)
