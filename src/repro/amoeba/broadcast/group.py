"""Broadcast group membership and the send/deliver engine.

A member sends by PB or BB from one place (``_transmit``); only
:mod:`.election` changes the seat once the group is built.  The group owns no
socket and no clock: it reads its host and nodes only through the Protocols
below.  A simulated ``Cluster`` hosts every member; a real node process
(:mod:`repro.net.host`) hosts one."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Sequence

from ...config import BroadcastParams
from ...errors import BroadcastError
from ..message import Message, estimate_size
from .election import Election
from .protocol import (
    CONTROL_MESSAGE_SIZE,
    KIND_ACCEPT,
    KIND_BB_DATA,
    KIND_DATA,
    KIND_REQUEST,
    KIND_RETRANSMIT,
    KIND_RETRANSMIT_REQ,
    KIND_SYNC,
    DeliveredMessage,
    MessageId,
    OrderingEngine,
    SendRecord,
)
from .sequencer import Sequencer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...config import CostModel

DeliveryHandler = Callable[[DeliveredMessage], None]

#: Unanswered sends of one broadcast, without a delivery in the meantime,
#: after which its sender suspects the seat and calls an election.
MAX_SEND_ATTEMPTS = 3


class GroupClock(Protocol):
    """The clock a member reads (``node.sim``)."""

    now: float


class GroupTimers(Protocol):
    """One-shot timers (``node.kernel``)."""

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> int: ...
    def cancel_timer(self, timer_id: int) -> None: ...


class GroupNode(Protocol):
    """What a member and a sequencer read of the node hosting them."""

    node_id: int
    alive: bool
    sim: GroupClock
    kernel: GroupTimers
    cost_model: "CostModel"

    def register_handler(self, kind: str, handler: Callable[[Message], None]) -> None: ...
    def on_recover(self, callback: Callable[[], None]) -> None: ...
    def make_message(
        self, dst: Optional[int], kind: str, payload: Any = None, size: int = 0, **headers: Any
    ) -> Message: ...
    def send(self, msg: Message, on_sent: Optional[Callable[[Message], None]] = None) -> None: ...
    def charge_overhead(self, duration: float) -> None: ...


class GroupTransport(Protocol):
    """What a group reads of the interconnect (``cluster.network``)."""

    supports_broadcast: bool
    lossy: bool
    node_ids: List[int]


class GroupHost(Protocol):
    """What a group reads of its host; ``nodes`` are the members it hosts."""

    network: GroupTransport
    cost_model: "CostModel"
    nodes: List[GroupNode]


@dataclass
class GroupStats:
    """Group-wide protocol statistics."""

    #: The group's members, each keeping a plain count that ``deliveries`` sums.
    members: Dict[int, "GroupMember"] = field(repr=False)
    pb_sends: int = 0
    bb_sends: int = 0
    retransmit_requests: int = 0
    #: Gap requests answered by an ordinary member (not the sequencer) out of
    #: its local delivered history — the cross-member recovery path.
    peer_retransmissions: int = 0
    elections: int = 0

    @property
    def deliveries(self) -> int:
        """Deliveries over all members; monotone, the counts survive a rejoin."""
        return sum(member.deliveries for member in self.members.values())


class GroupMember:
    """Per-node endpoint of the totally-ordered broadcast group."""

    def __init__(self, group: "BroadcastGroup", node: GroupNode) -> None:
        self.group = group
        self.node = node
        self.node_id = node.node_id
        self.engine = OrderingEngine()
        self.delivery_handler: Optional[DeliveryHandler] = None
        #: False between a node's recovery and the completion of its rejoin
        #: catch-up: an unsynced member's delivered history was wiped by the
        #: crash, so it must neither answer gap requests nor chase the gap
        #: between its fresh engine and the group's current seqno (the rejoin
        #: seed covers that span out of band).
        self.synced = True
        #: The uid of this member's in-flight rejoin anchor broadcast: when
        #: it comes back sequenced, delivery fast-forwards to its seqno and
        #: the member is synced again.
        self._anchor_uid: Optional[MessageId] = None
        #: Recently delivered messages, retained so this member can seed a
        #: sequencer history if it wins an election after a crash, and so it
        #: can answer broadcast gap requests from lagging peers.
        self._delivered_history: "OrderedDict[int, DeliveredMessage]" = OrderedDict()
        self._history_size = group.params.history_size
        #: Messages delivered here, ever (not reset by a crash).
        self.deliveries = 0
        #: Broadcasts this member has issued: the counter of its latest uid.
        self.sent = 0
        self._pending_sends: Dict[MessageId, SendRecord] = {}
        self._gap_timers: Dict[int, int] = {}
        #: Gap-request attempts per missing seqno; after the first unanswered
        #: unicast to the sequencer, requests fall back to a group broadcast.
        self._gap_attempts: Dict[int, int] = {}
        #: When this member last delivered a sequenced message: deliveries
        #: prove the sequencer is alive (merely backlogged), so send retries
        #: keep backing off instead of escalating to an election.
        self._last_delivery_time = node.sim.now
        # The node's handler table is the only dispatch on the way in.
        for kind, handler in (
            (KIND_REQUEST, self._on_request),
            (KIND_DATA, self._on_data),
            (KIND_RETRANSMIT, self._on_retransmit),
            (KIND_BB_DATA, self._on_bb_data),
            (KIND_ACCEPT, self._on_accept),
            (KIND_SYNC, self._on_sync),
            (KIND_RETRANSMIT_REQ, self._on_retransmit_request),
        ):
            node.register_handler(group.wire_kind(kind), handler)
        self.election = Election(self)
        # A crash loses this member's volatile protocol state; the loss is
        # applied when the node comes back (wiping a dead member changes
        # nothing observable, and the election path still seeds the new
        # sequencer from the best surviving member's history).
        node.on_recover(self.wipe_for_rejoin)

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def broadcast(
        self,
        payload: object,
        size: int = 0,
        on_delivered: Optional[Callable[[int], None]] = None,
        method: Optional[str] = None,
    ) -> MessageId:
        """Reliably, totally-ordered broadcast ``payload`` to the whole group.

        Returns the message's unique id.  Delivery (including at the sending
        member itself) happens later, through the member's delivery handler;
        ``on_delivered`` additionally fires with the assigned sequence number
        when the sender's own copy is delivered locally.
        """
        if size <= 0:
            size = max(1, estimate_size(payload))
        self.sent += 1
        uid = MessageId(self.node_id, self.sent)
        chosen = method or self.group.choose_method(size)
        record = SendRecord(
            uid=uid, payload=payload, size=size, method=chosen, on_delivered=on_delivered
        )
        self._pending_sends[uid] = record
        if chosen == "pb":
            self.group.stats.pb_sends += 1
        else:
            self.group.stats.bb_sends += 1
        self._transmit(record)
        return uid

    def _transmit(self, record: SendRecord) -> None:
        """(Re)send ``record``: PB ships it to the seat, BB broadcasts it."""
        record.attempts += 1
        group, node = self.group, self.node
        if self.node_id == group.sequencer_node_id:
            # The sender holds the seat: it orders its own message at once (an
            # ordered data broadcast, PB or BB alike), so arm the retry now.
            group.sequencer.handle_pb_request(self.node_id, record.uid, record.payload, record.size)
            self._arm_retry(record)
            return
        bb = record.method == "bb"
        msg = node.make_message(
            None if bb else group.sequencer_node_id,
            group.wire_kind(KIND_BB_DATA if bb else KIND_REQUEST),
            payload=record.payload,
            size=record.size,
            uid=record.uid,
        )
        node.send(msg, on_sent=lambda _msg: self._arm_retry(record))
        if bb:
            # The sender keeps its own copy; it is sequenced when the seat's
            # Accept arrives (or at once, on a resend the Accept has outrun).
            run = self.engine.offer_bb_data(self.node_id, record.uid, record.payload, record.size)
            self._arrived(run)

    def _arm_retry(self, record: SendRecord) -> None:
        """(Re)arm the send-retry timer with linear backoff.

        Called when the message has actually left the wire (via
        ``_transmit``'s ``on_sent``), not when it was queued — a bulk sender's
        NIC backlog must not look like a dead sequencer.
        """
        if record.retry_timer is not None:
            self.node.kernel.cancel_timer(record.retry_timer)
        backoff = min(record.attempts, 4)
        record.retry_timer = self.node.kernel.set_timer(
            self.group.retry_timeout * max(1, backoff), self._on_retry_timeout, record.uid
        )

    def _on_retry_timeout(self, uid: MessageId) -> None:
        record = self._pending_sends.get(uid)
        if record is None or record.delivered:
            return
        progressing = (
            self.node.sim.now - self._last_delivery_time < self.group.params.election_timeout
        )
        if record.attempts >= MAX_SEND_ATTEMPTS and not progressing:
            # No deliveries either: the sequencer is probably gone; try to
            # elect a new one and keep the record pending so it is resent
            # after the election.
            self.election.start()
            record.attempts = 0
            self._arm_retry(record)
            return
        # A busy-but-alive sequencer dedups the retry and rebroadcasts only
        # what was really lost.
        self.group.stats.retransmit_requests += 1
        self._transmit(record)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def _on_request(self, msg: Message) -> None:
        if self.group.sequencer_node_id == self.node_id:
            self.group.sequencer.handle_pb_request(
                msg.src, msg.headers["uid"], msg.payload, msg.size
            )
        # else: stale request addressed to an old sequencer; drop it.

    def _on_data(self, msg: Message) -> None:
        """Sequenced data from the seat.  A number the seat this member
        follows hands out, sent by another node (a deposed seat, or a winner
        whose announcement was lost here), is dropped for an election."""
        group = self.group
        if msg.src == group.sequencer_node_id or msg.payload.seqno < group.seat_start:
            self._on_retransmit(msg)
        else:
            self.election.start()

    def _on_retransmit(self, msg: Message) -> None:
        """A sequenced record, from the seat or a peer's history."""
        record = msg.payload
        if self._anchor_uid is not None and record.uid == self._anchor_uid:
            # The rejoin anchor came back sequenced: everything before it
            # is covered by the seed, so re-enter the order right here.
            self._anchor_uid = None
            self.synced = True
            self._deliver(self.engine.fast_forward(record.seqno))
        self._arrived(self.engine.offer(record))

    def _on_bb_data(self, msg: Message) -> None:
        uid = msg.headers["uid"]
        run = self.engine.offer_bb_data(msg.src, uid, msg.payload, msg.size)
        if run:
            # Its Accept was here first; what it releases precedes whatever
            # a sequencer hosted here is about to number.
            self._deliver(run)
        if self.group.sequencer_node_id == self.node_id:
            self.group.sequencer.handle_bb_data(msg.src, uid, msg.payload, msg.size)
        self._schedule_gap_requests()

    def _on_accept(self, msg: Message) -> None:
        headers = msg.headers
        self._arrived(
            self.engine.offer_accept(headers["seqno"], headers["origin"], headers["uid"])
        )

    def _on_sync(self, msg: Message) -> None:
        seqno, group = msg.headers["seqno"], self.group
        if msg.src == group.sequencer_node_id or seqno < group.seat_start:  # as _on_data
            self.engine.note_highest(seqno)
            self._schedule_gap_requests()

    def _on_retransmit_request(self, msg: Message) -> None:
        seqno = msg.headers["seqno"]
        served = False
        if self.group.sequencer_node_id == self.node_id:
            served = self.group.sequencer.handle_retransmit_request(msg.src, seqno)
        if msg.is_broadcast and not served:
            # A broadcast gap request the sequencer could not serve (newly
            # elected, evicted, or it is the requester's node): one member
            # per salvo, rotated by the attempt counter, answers from local
            # state.  A request draws at most two replies (a remote seat's
            # and the designee's); the engine discards the duplicate.
            if self._gap_responder(seqno, msg.headers.get("salvo", 0)):
                self._answer_gap_request(msg.src, seqno)

    def local_sequenced_data(self, record: DeliveredMessage) -> None:
        """Direct (loop-back) delivery used by a sequencer hosted on this node."""
        self._arrived(self.engine.offer(record))

    def _arrived(self, run: Sequence[DeliveredMessage]) -> None:
        """After every arrival: deliver what it released, chase what it revealed."""
        if run:
            self._deliver(run)
        if self.engine.has_gap:
            self._schedule_gap_requests()

    def recovery_entries(self) -> List[DeliveredMessage]:
        """Everything this member could serve as sequencer history: its
        retained delivered messages plus sequenced-but-undelivered buffers."""
        return list(self._delivered_history.values()) + self.engine.buffered_messages()

    def lookup_entry(self, seqno: int) -> Optional[DeliveredMessage]:
        """This member's local copy of sequenced message ``seqno``, if any."""
        return self._delivered_history.get(seqno) or self.engine.buffered(seqno)

    def _gap_responder(self, seqno: int, salvo: int) -> bool:
        """Whether this member should answer the given broadcast gap request.

        One member per salvo, rotating with the requester's retry counter,
        so a crashed or lagging designee costs one retry interval and
        recovery traffic stays at one reply per request.  Members still
        catching up after a rejoin are skipped (their history was wiped
        with the crash); a member on another host is taken to be synced.
        """
        members, every = self.group.members, self.group.cluster.network.node_ids
        ids = [nid for nid in every if nid not in members or members[nid].synced]
        if not ids:
            return False
        return ids[(seqno + salvo) % len(ids)] == self.node_id

    def _answer_gap_request(self, requester: int, seqno: int) -> None:
        """Serve a peer's broadcast gap request from local delivered state."""
        if not self.synced:
            return
        record = self.lookup_entry(seqno)
        if record is None or requester == self.node_id:
            return
        self.group.stats.peer_retransmissions += 1
        self.node.send(
            self.node.make_message(
                requester, self.group.wire_kind(KIND_RETRANSMIT), payload=record, size=record.size
            )
        )

    def _deliver(self, run: Sequence[DeliveredMessage]) -> None:
        """Hand an in-order run to the application, one record at a time."""
        history = self._delivered_history
        history_size = self._history_size
        gap_timers = self._gap_timers
        gap_attempts = self._gap_attempts
        node_id = self.node_id
        sim = self.node.sim
        for record in run:
            seqno = record.seqno
            history[seqno] = record
            if len(history) > history_size:
                history.popitem(last=False)
            if gap_timers:
                timer = gap_timers.pop(seqno, None)
                if timer is not None:
                    self.node.kernel.cancel_timer(timer)
            if gap_attempts:
                gap_attempts.pop(seqno, None)
            self._last_delivery_time = sim.now
            if record.origin == node_id:
                sent = self._pending_sends.pop(record.uid, None)
                if sent is not None:
                    sent.delivered = True
                    if sent.retry_timer is not None:
                        self.node.kernel.cancel_timer(sent.retry_timer)
                    if sent.on_delivered is not None:
                        sent.on_delivered(seqno)
            self.deliveries += 1
            if self.delivery_handler is not None:
                self.delivery_handler(record)

    def probe_gap(self) -> None:
        """One-shot recovery probe for the next expected sequence number.

        In-band gap recovery fires only when a *later* arrival reveals a
        hole; a layer above can know out of band that this member missed
        sequenced traffic (a coherence message of a newer regime arrived
        while the group went quiet).  One broadcast gap request for the
        first unseen seqno: the sequencer or the designated peer serves it
        if it exists; if not, the caller re-probes — no self-re-arm, so
        probing a not-yet-sequenced seqno cannot spin.
        """
        if not self.synced:
            return  # the rejoin seed, not gap recovery, covers the span
        seqno = self.engine.next_expected
        if seqno in self._gap_timers:
            return  # in-band gap recovery is already chasing it
        # Always a broadcast: the probe exists precisely for situations
        # where the sequencer may be gone.
        self._send_gap_request(seqno, prefer_sequencer=False)

    def _send_gap_request(self, seqno: int, prefer_sequencer: bool) -> None:
        """Emit one retransmit request for ``seqno`` (unicast or broadcast).

        The first request may go unicast to the sequencer; repeats (and
        sequencer-less probes) broadcast so the rotating designated peer
        answers from retained history.
        """
        attempts = self._gap_attempts.get(seqno, 0) + 1
        self._gap_attempts[seqno] = attempts
        self.group.stats.retransmit_requests += 1
        sequencer_node = self.group.sequencer_node_id
        destination = None
        if prefer_sequencer and sequencer_node != self.node_id and attempts <= 1:
            destination = sequencer_node
        msg = self.node.make_message(
            destination,
            self.group.wire_kind(KIND_RETRANSMIT_REQ),
            size=CONTROL_MESSAGE_SIZE,
            seqno=seqno,
            salvo=attempts,
        )
        self.node.send(msg)

    def _schedule_gap_requests(self) -> None:
        if not self.engine.has_gap:
            return
        if not self.synced:
            # A fresh engine behind a live group would see everything up to
            # the current seqno as "missing" and storm the group with gap
            # requests; the rejoin anchor + seed close that span instead.
            return
        for seqno in self.engine.missing_seqnos():
            if seqno in self._gap_timers:
                continue
            self._gap_timers[seqno] = self.node.kernel.set_timer(
                self.group.gap_request_delay, self._request_retransmit, seqno
            )

    def _request_retransmit(self, seqno: int) -> None:
        self._gap_timers.pop(seqno, None)
        if seqno < self.engine.next_expected:
            self._gap_attempts.pop(seqno, None)
            return  # it arrived in the meantime
        # First attempt goes unicast to the sequencer; after that (or when
        # the sequencer is hosted here and its history lacks the message)
        # the whole group is asked, the attempt counter rotating which
        # member answers from its retained history.
        self._send_gap_request(seqno, prefer_sequencer=True)
        # Re-arm in case the retransmission is lost too.
        self._gap_timers[seqno] = self.node.kernel.set_timer(
            self.group.retry_timeout, self._request_retransmit, seqno
        )

    def resend_pending(self) -> None:
        """Resend every undelivered broadcast (at a newly announced seat)."""
        for record in list(self._pending_sends.values()):
            if not record.delivered:
                self._transmit(record)

    def cancel(self, uid: MessageId) -> None:
        """Stop retrying broadcast ``uid``; it may still be delivered."""
        record = self._pending_sends.pop(uid, None)
        if record is not None and record.retry_timer is not None:
            self.node.kernel.cancel_timer(record.retry_timer)

    # ------------------------------------------------------------------ #
    # Rejoin (crash -> recover catch-up)
    # ------------------------------------------------------------------ #

    def wipe_for_rejoin(self) -> None:
        """Apply the crash's loss of volatile protocol state (at recover time).

        Everything the protocol accumulated — the ordering engine, delivered
        history, pending sends, gap/election/retry timers — died with the
        machine; only the uid counter survives (the stand-in for a restart
        incarnation number: a recovered member must never reuse a message id,
        or the sequencer's dedup table would swallow its new sends).  The
        member stays ``synced = False`` until a higher layer completes the
        rejoin catch-up.
        """
        for timer in self._gap_timers.values():
            self.node.kernel.cancel_timer(timer)
        self._gap_timers.clear()
        self._gap_attempts.clear()
        for record in self._pending_sends.values():
            if record.retry_timer is not None:
                self.node.kernel.cancel_timer(record.retry_timer)
        self._pending_sends.clear()
        self.election.reset()
        self._delivered_history.clear()
        self.engine = OrderingEngine()
        self._last_delivery_time = self.node.sim.now
        self._anchor_uid = None
        self.synced = False

    def begin_rejoin(
        self,
        payload: object,
        size: int = 0,
        on_delivered: Optional[Callable[[int], None]] = None,
    ) -> MessageId:
        """Broadcast this member's rejoin anchor marker.

        The marker's assigned sequence number becomes the member's re-entry
        point into the group's total order: when the marker comes back
        sequenced, delivery fast-forwards to it and the member is synced
        again.  The state covering everything ordered *before* the anchor
        arrives out of band (the rejoin seed a peer sends on delivering the
        marker).  Forced onto the PB path so the anchor always returns as
        sequenced data.
        """
        uid = self.broadcast(payload, size=size, method="pb", on_delivered=on_delivered)
        # Safe to set after the send: the sequenced copy arrives in a later
        # event (the rejoining node never hosts the sequencer seat — the
        # rejoin hands a held seat off before anchoring).
        self._anchor_uid = uid
        return uid

    def mark_synced(self) -> None:
        """Degraded rejoin: declare this member caught up without an anchor
        (used when no synced peer survives to seed it)."""
        self._anchor_uid = None
        self.synced = True

    def resume_delivery(self, from_seqno: int) -> None:
        """Skip this member's delivery cursor past ``from_seqno`` and flush.

        The rejoin seed covered the order up to and including ``from_seqno``
        out of band; anything later that already arrived sequenced delivers
        now.
        """
        self._arrived(self.engine.fast_forward(from_seqno + 1))


class BroadcastGroup:
    """A totally-ordered broadcast group spanning every node of a network.

    Several groups can coexist (the sharding layer runs one per shard): a
    ``group_id`` namespaces each group's wire kinds, so their sequencing,
    gap recovery and elections are independent, and each has its own seat.
    A group has a member per node its host hosts, and a :class:`Sequencer`
    only while one of them holds the seat (``sequencer`` is None otherwise).
    """

    def __init__(
        self,
        cluster: GroupHost,
        params: Optional[BroadcastParams] = None,
        group_id: int = 0,
        sequencer_node_id: Optional[int] = None,
    ) -> None:
        if not cluster.network.supports_broadcast:
            raise BroadcastError("the broadcast group requires a network with hardware broadcast")
        self.cluster = cluster
        self.group_id = group_id
        self.params = params or cluster.cost_model.broadcast
        self.members: Dict[int, GroupMember] = {}
        self.stats = GroupStats(self.members)
        for node in cluster.nodes:
            self.members[node.node_id] = GroupMember(self, node)
        #: The seat (initially the configured node, defaulting to the
        #: lowest-numbered machine); only :mod:`.election` changes it.
        initial = cluster.nodes[0].node_id if sequencer_node_id is None else sequencer_node_id
        self.sequencer_node_id = initial
        #: The first number the current seat hands out (see ``_on_data``),
        #: and how many seats the group had before it.
        self.seat_start, self.epoch = 1, 0
        seat = self.members.get(initial)
        self.sequencer: Optional[Sequencer] = None if seat is None else Sequencer(self, seat.node)
        #: Tunables for loss recovery (fractions of the election timeout).
        self.retry_timeout = self.params.election_timeout / 2.0
        self.gap_request_delay = self.params.election_timeout / 20.0

    # ------------------------------------------------------------------ #
    # Lookup / configuration
    # ------------------------------------------------------------------ #

    def wire_kind(self, base: str) -> str:
        """The on-wire message kind for ``base`` in this group.

        Group 0 keeps the plain protocol kinds (so single-group traffic and
        traces look exactly as before); other groups suffix their id, which
        keeps every group's registrations and dispatch disjoint.
        """
        return base if self.group_id == 0 else f"{base}#g{self.group_id}"

    def member(self, node_id: int) -> GroupMember:
        return self.members[node_id]

    def set_delivery_handler(self, node_id: int, handler: DeliveryHandler) -> None:
        """Install the application's in-order delivery callback for one member."""
        self.members[node_id].delivery_handler = handler

    def choose_method(self, size: int) -> str:
        """Pick PB for short messages, BB for long ones (the paper's rule)."""
        if self.params.method != "auto":
            return self.params.method
        packets = self.cluster.cost_model.network.packets_for(size)
        return "pb" if packets <= self.params.pb_max_packets else "bb"

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def broadcast_from(
        self,
        node_id: int,
        payload: object,
        size: int = 0,
        method: Optional[str] = None,
        on_delivered: Optional[Callable[[int], None]] = None,
    ) -> MessageId:
        """Broadcast ``payload`` originating at ``node_id``."""
        return self.members[node_id].broadcast(
            payload, size=size, method=method, on_delivered=on_delivered
        )

    def delivered_counts(self) -> Dict[int, int]:
        """Number of messages delivered at each member (for tests)."""
        return {nid: member.deliveries for nid, member in self.members.items()}
