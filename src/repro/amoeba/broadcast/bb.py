"""The BB (Broadcast, then Broadcast) send path.

The sender broadcasts the full message itself; when the sequencer sees it, it
broadcasts a short *Accept* message carrying the newly assigned sequence
number.  Only ``m`` bytes of data cross the wire (plus the tiny Accept), but
every machine is interrupted twice: once for the data, once for the Accept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .protocol import KIND_BB_DATA, SendRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .group import GroupMember


class BBStrategy:
    """Send-side behaviour of the BB protocol."""

    name = "bb"

    def send(self, member: "GroupMember", record: SendRecord) -> bool:
        """Broadcast ``record`` to the whole group (unordered until Accepted).

        Returns True when the retry timer will be armed by the network's
        ``on_sent`` callback (once the data has left the wire), False when
        the caller must arm it itself.
        """
        record.attempts += 1
        group = member.group
        if member.node_id == group.sequencer_node_id:
            # The sequencer broadcasting: it can order its own message
            # immediately; the data still has to reach the other members, so
            # it goes out as an ordered data broadcast instead of data+Accept.
            group.sequencer.handle_pb_request(
                member.node_id, record.uid, record.payload, record.size
            )
            return False
        msg = member.node.make_message(
            None,
            group.wire_kind(KIND_BB_DATA),
            payload=record.payload,
            size=record.size,
            uid=record.uid,
        )
        member.node.send(msg, on_sent=lambda _msg: member._arm_retry(record))
        # The sender keeps its own copy; it will be sequenced when the
        # sequencer's Accept arrives (or is at once, on a resend the Accept
        # has outrun).
        member._arrived(
            member.engine.offer_bb_data(member.node_id, record.uid, record.payload, record.size)
        )
        return True
