"""Totally-ordered reliable broadcast (the Amoeba group-communication layer).

The paper's runtime relies on a sequencer-based protocol pair:

* **PB** (Point-to-point, then Broadcast): the sender ships the message to the
  sequencer, which assigns the next sequence number and broadcasts it.  The
  message crosses the wire twice (2·m bytes) but interrupts every receiver
  only once.
* **BB** (Broadcast, then Broadcast): the sender broadcasts the message
  itself; the sequencer then broadcasts a short *Accept* carrying the
  sequence number.  Only m bytes of data cross the wire (plus the tiny
  Accept), but every machine is interrupted twice.

The implementation dynamically picks PB for messages of at most one packet
and BB for longer ones, exactly as the paper describes, sending either from
one member method (``GroupMember._transmit`` in :mod:`.group`), and recovers
from lost packets via the sequencer's history buffer.  A crashed sequencer is
replaced through an election among the surviving members; :mod:`.election`
runs it and is the one place the seat changes.
"""

from .group import BroadcastGroup, GroupMember
from .protocol import DeliveredMessage, OrderingEngine, SequencerLog
from .sequencer import Sequencer

__all__ = [
    "BroadcastGroup",
    "GroupMember",
    "Sequencer",
    "OrderingEngine",
    "SequencerLog",
    "DeliveredMessage",
]
