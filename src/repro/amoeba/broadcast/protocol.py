"""Protocol-independent pieces of the group-communication layer.

This module holds the wire-format constants, the one immutable record a
sequenced message is (:class:`DeliveredMessage`), the seat's
:class:`SequencerLog` that numbers such records and keeps them for
retransmission, the per-member :class:`OrderingEngine` that turns an
unordered stream of them into in-order runs (buffering out-of-order arrivals
and reporting gaps), and the bookkeeping records for in-flight sends.

Nothing here does I/O or reads a clock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Message kinds used on the wire -------------------------------------------------

#: PB: sender -> sequencer, full data.
KIND_REQUEST = "grp.request"
#: Sequencer -> all, full data with assigned sequence number (PB path,
#: retransmissions, and new-sequencer announcements of reordered data).
KIND_DATA = "grp.data"
#: BB: sender -> all, full data without a sequence number yet.
KIND_BB_DATA = "grp.bbdata"
#: Sequencer -> all, short accept assigning a sequence number to a BB message.
KIND_ACCEPT = "grp.accept"
#: Member -> sequencer, request retransmission of a missing sequence number.
KIND_RETRANSMIT_REQ = "grp.retransmit_req"
#: Sequencer -> member, retransmitted data (unicast).
KIND_RETRANSMIT = "grp.retransmit"
#: Sequencer -> all, short idle-time heartbeat carrying the highest assigned
#: sequence number so members can detect a lost tail message.
KIND_SYNC = "grp.sync"
#: Election: candidate announcement.
KIND_ELECTION = "grp.election"
#: Election: the winner announces itself as the new sequencer.
KIND_COORDINATOR = "grp.coordinator"

#: Size, in bytes, of the short control messages (Accept, retransmit request,
#: election traffic).  The paper calls the Accept "a very short message".
CONTROL_MESSAGE_SIZE = 32


@dataclass(frozen=True)
class MessageId:
    """Globally unique id of one application broadcast: (origin node, counter)."""

    origin: int
    counter: int


@dataclass
class SendRecord:
    """Book-keeping for one broadcast this member has initiated."""

    uid: MessageId
    payload: Any
    size: int
    method: str  # "pb" or "bb"
    attempts: int = 0
    delivered: bool = False
    retry_timer: Optional[int] = None
    on_delivered: Optional[Callable[[int], None]] = None


@dataclass(frozen=True)
class DeliveredMessage:
    """One sequenced message: the only record type of the delivery path.

    The sequencer builds it once, when it assigns the number; that same
    object rides the ``grp.data`` / ``grp.retransmit`` message, sits in the
    sequencer's history and in every member's ordering buffer and delivered
    history, and is what the delivery handler receives.  Immutability is
    what makes the sharing safe.
    """

    seqno: int
    origin: int
    uid: MessageId
    payload: Any
    size: int


class SequencerLog:
    """A sequencer seat's numbering state: the next number, the history of
    numbered records, and which uid got which number.

    :meth:`append` is the one place a sequenced record is built.  The
    history is bounded by ``history_size``: the oldest records are evicted
    first, and their uids are forgotten with them.
    """

    def __init__(self, history_size: int) -> None:
        self.next_seq = 1
        self.history_size = history_size
        self._history: "OrderedDict[int, DeliveredMessage]" = OrderedDict()
        #: uid -> seqno, for duplicate suppression when senders retry.
        self._assigned: Dict[MessageId, int] = {}

    def append(self, origin: int, uid: MessageId, payload: Any, size: int) -> DeliveredMessage:
        """Number a message with the next number and retain its record."""
        seqno = self.next_seq
        record = DeliveredMessage(seqno, origin, uid, payload, size)
        self.next_seq = seqno + 1
        self._assigned[uid] = seqno
        self._history[seqno] = record
        self._evict()
        return record

    def seqno_of(self, uid: MessageId) -> Optional[int]:
        """The number ``uid`` was given, while the log remembers it."""
        return self._assigned.get(uid)

    def get(self, seqno: int) -> Optional[DeliveredMessage]:
        """The retained record numbered ``seqno`` (to retransmit it)."""
        return self._history.get(seqno)

    def advance_to(self, next_seq: int) -> None:
        """Continue numbering at ``next_seq`` at the earliest (never back)."""
        self.next_seq = max(self.next_seq, next_seq)

    def adopt(self, records: Iterable[DeliveredMessage]) -> None:
        """Take over records another seat numbered: retain them, remember
        their uids, and number after the highest of them."""
        for record in sorted(records, key=lambda r: r.seqno):
            self._history[record.seqno] = record
            self._assigned[record.uid] = record.seqno
            self.next_seq = max(self.next_seq, record.seqno + 1)
        self._evict()

    def _evict(self) -> None:
        while len(self._history) > self.history_size:
            _, evicted = self._history.popitem(last=False)
            self._assigned.pop(evicted.uid, None)

    @property
    def highest_assigned(self) -> int:
        return self.next_seq - 1

    def __len__(self) -> int:
        return len(self._history)

    def entries(self) -> Dict[int, DeliveredMessage]:
        """A copy of the retained history, seqno -> record."""
        return dict(self._history)


@dataclass
class OrderingEngine:
    """Turns sequenced-but-unordered arrivals into strict in-order delivery.

    The engine is purely local state: it never touches the network.  Its
    caller — a :class:`~repro.amoeba.broadcast.group.GroupMember`, or a
    primary-copy replica of the real-socket runtime — feeds it with
    ``offer`` (a sequenced record) and ``offer_accept`` / ``offer_bb_data``
    (for the BB path where data and ordering arrive separately); each
    returns the in-order run of records that just became deliverable, which
    the caller must deliver (the engine keeps no copy).
    """

    #: Next sequence number to deliver to the application.
    next_expected: int = 1
    #: Sequenced messages waiting for their predecessors (all of them
    #: numbered above ``next_expected``).
    _ordered_buffer: Dict[int, DeliveredMessage] = field(default_factory=dict)
    #: BB data received but not yet sequenced, keyed by uid.
    _unordered_data: Dict[MessageId, Tuple[Any, int]] = field(default_factory=dict)
    #: Accepts received whose data has not arrived yet, uid -> seqno (the
    #: newest, should a message be accepted twice): arriving BB data finds
    #: its number without scanning.
    _pending_accepts: Dict[MessageId, int] = field(default_factory=dict)
    #: Duplicates discarded.
    duplicates: int = 0
    #: The largest sequence number this member has evidence of: delivered,
    #: buffered, accepted, or announced by a sync heartbeat (which may exceed
    #: anything received so far if the tail was lost).  Never decreases.
    highest_known_seqno: int = 0

    # -- feeding ----------------------------------------------------------- #

    def offer(self, record: DeliveredMessage) -> Sequence[DeliveredMessage]:
        """Offer a fully sequenced record (PB data or a retransmission)."""
        seqno = record.seqno
        buffer = self._ordered_buffer
        if seqno < self.next_expected or seqno in buffer:
            self.duplicates += 1
            return ()
        if self._pending_accepts and self._pending_accepts.get(record.uid) == seqno:
            del self._pending_accepts[record.uid]
        if seqno > self.highest_known_seqno:
            self.highest_known_seqno = seqno
        if seqno != self.next_expected:
            buffer[seqno] = record
            return ()
        self.next_expected = seqno + 1
        if not buffer:
            # The common case, in sequence with nothing held back: the
            # record goes straight through, the buffer is never written.
            return (record,)
        return [record] + self._drain()

    def offer_bb_data(
        self, origin: int, uid: MessageId, payload: Any, size: int
    ) -> Sequence[DeliveredMessage]:
        """Offer BB data that does not carry a sequence number yet."""
        # If the accept already arrived, the seqno is known; promote directly.
        seqno = self._pending_accepts.get(uid)
        if seqno is not None:
            return self.offer(DeliveredMessage(seqno, origin, uid, payload, size))
        if uid not in self._unordered_data:
            self._unordered_data[uid] = (payload, size)
        else:
            self.duplicates += 1
        return ()

    def offer_accept(self, seqno: int, origin: int, uid: MessageId) -> Sequence[DeliveredMessage]:
        """Offer an Accept for a BB message.

        If the corresponding data is already here the message is now
        sequenced; otherwise the accept is remembered until it arrives.
        """
        if seqno < self.next_expected or seqno in self._ordered_buffer:
            self.duplicates += 1
            return ()
        if uid in self._unordered_data:
            payload, size = self._unordered_data.pop(uid)
            return self.offer(DeliveredMessage(seqno, origin, uid, payload, size))
        self._pending_accepts[uid] = seqno
        self.note_highest(seqno)
        return ()

    # -- draining ---------------------------------------------------------- #

    def _drain(self) -> List[DeliveredMessage]:
        """Remove and return the buffered run starting at ``next_expected``."""
        run: List[DeliveredMessage] = []
        buffer = self._ordered_buffer
        expected = self.next_expected
        while expected in buffer:
            run.append(buffer.pop(expected))
            expected += 1
        self.next_expected = expected
        return run

    def fast_forward(self, seqno: int) -> Sequence[DeliveredMessage]:
        """Skip delivery forward so ``seqno`` is the next message delivered;
        returns the buffered run that starts there, if any.

        Used by the rejoin catch-up: a recovered member is seeded with a
        state snapshot that already covers everything sequenced before its
        rejoin anchor, so the history before the anchor must never be
        delivered (it would double-apply against the snapshot).
        """
        if seqno > self.next_expected:
            for buffered in [s for s in self._ordered_buffer if s < seqno]:
                del self._ordered_buffer[buffered]
            for uid in [u for u, s in self._pending_accepts.items() if s < seqno]:
                del self._pending_accepts[uid]
            self.next_expected = seqno
            self.note_highest(seqno - 1)
        return self._drain()

    def note_highest(self, seqno: int) -> None:
        """Record that sequence numbers up to ``seqno`` exist (sync heartbeat)."""
        if seqno > self.highest_known_seqno:
            self.highest_known_seqno = seqno

    @property
    def has_gap(self) -> bool:
        """Is any number up to the highest known still missing?  O(1):
        everything buffered lies in that span, so it is gap-free exactly
        when the buffer fills it."""
        return self.highest_known_seqno - self.next_expected >= len(self._ordered_buffer)

    def missing_seqnos(self) -> List[int]:
        """Sequence numbers up to the highest known that have not arrived."""
        return [
            seqno
            for seqno in range(self.next_expected, self.highest_known_seqno + 1)
            if seqno not in self._ordered_buffer
        ]

    @property
    def buffered_count(self) -> int:
        return len(self._ordered_buffer)

    def buffered(self, seqno: int) -> Optional[DeliveredMessage]:
        """The sequenced-but-undelivered record numbered ``seqno``, if held."""
        return self._ordered_buffer.get(seqno)

    def buffered_messages(self) -> List[DeliveredMessage]:
        """Sequenced-but-undelivered messages (used for sequencer recovery)."""
        return list(self._ordered_buffer.values())
