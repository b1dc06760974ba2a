"""The PB (Point-to-point, then Broadcast) send path.

The sender ships the full message to the sequencer as a point-to-point
message; the sequencer assigns the next sequence number and broadcasts the
data.  The message therefore consumes roughly ``2·m`` bytes of network
bandwidth, but each user machine is interrupted only once (for the ordered
broadcast).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .protocol import KIND_REQUEST, SendRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .group import GroupMember


class PBStrategy:
    """Send-side behaviour of the PB protocol."""

    name = "pb"

    def send(self, member: "GroupMember", record: SendRecord) -> bool:
        """Transmit ``record`` toward the sequencer.

        Returns True when the retry timer will be armed by the network's
        ``on_sent`` callback (i.e. once the request has left the wire), False
        when the caller must arm it itself.
        """
        record.attempts += 1
        group = member.group
        sequencer_node = group.sequencer_node_id
        if member.node_id == sequencer_node:
            # The sender *is* the sequencer: skip the network hop entirely.
            group.sequencer.handle_pb_request(
                member.node_id, record.uid, record.payload, record.size
            )
            return False
        msg = member.node.make_message(
            sequencer_node,
            group.wire_kind(KIND_REQUEST),
            payload=record.payload,
            size=record.size,
            uid=record.uid,
        )
        member.node.send(msg, on_sent=lambda _msg: member._arm_retry(record))
        return True
