"""Per-node network interfaces.

The NIC receives packets from the network, charges the node for the receive
interrupt, reassembles fragmented messages, charges protocol-processing time
for each complete message, and finally calls the handler the node has
registered for the message's kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..errors import NetworkError
from .message import Message
from .network import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import BaseNetwork
    from .node import Node


@dataclass
class NicStats:
    """Receive-side statistics for one NIC."""

    interrupts: int = 0
    packets_received: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    packets_discarded: int = 0


class NetworkInterface:
    """Receive-side model of a node's network adapter.

    Packets are reassembled and the receive-interrupt/protocol CPU cost is
    charged before :meth:`deliver` calls the complete message's handler.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.node_id = node.node_id
        self.network: Optional["BaseNetwork"] = None
        self.stats = NicStats()
        #: Partially reassembled messages keyed by message id.
        self._partial: Dict[int, int] = {}
        #: Failure-injection hook: when set, packets for which it returns
        #: True are silently dropped before reaching the node (targeted loss,
        #: unlike the network's probabilistic ``loss_rate``).
        self.drop_filter: Optional[Callable[[Packet], bool]] = None

    def receive_packet(self, packet: Packet) -> None:
        """Handle one packet arriving from the network (kernel context)."""
        node = self.node
        stats = self.stats
        if not node.alive:
            stats.packets_discarded += 1
            return
        if self.drop_filter is not None and self.drop_filter(packet):
            stats.packets_discarded += 1
            return
        # Every packet interrupts the receiving CPU.
        stats.interrupts += 1
        stats.packets_received += 1
        stats.bytes_received += packet.payload_bytes
        node.charge_overhead(node.cost_model.cpu.interrupt_cost)
        msg = packet.message
        if packet.count != 1:
            received = self._partial.get(msg.msg_id, 0) + 1
            if received < packet.count:
                self._partial[msg.msg_id] = received
                return
            self._partial.pop(msg.msg_id, None)
        self.deliver(msg)

    def deliver(self, msg: Message) -> None:
        """Transport-seam entry: hand one complete message to its handler.

        Overhead is a float sum per node, so the order is part of the model:
        interrupt charge, this protocol charge, then whatever the handler charges.
        """
        node = self.node
        if not node.alive:
            return
        self.stats.messages_received += 1
        node.charge_overhead(node.cost_model.cpu.protocol_cost)
        node.stats.messages_received += 1
        handler = node._handlers.get(msg.kind)
        if handler is None:
            raise NetworkError(
                f"node {node.node_id} received {msg.kind!r} but has no handler for it"
            )
        handler(msg)

    def drop_partial_state(self) -> None:
        """Forget all partially reassembled messages (used on node crash)."""
        self._partial.clear()
