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
from .network import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import BaseNetwork
    from .node import Node


@dataclass
class NicStats:
    """Receive-side statistics for one NIC."""

    interrupts: int = 0
    packets_discarded: int = 0


class NetworkInterface:
    """Receive-side model of a node's network adapter.

    :meth:`receive_packet` takes a packet from the wire to the handler of
    the message it completes, charging the receive-interrupt and protocol
    CPU cost on the way.
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
        """Handle one packet arriving from the network (kernel context).

        Per packet: a dead receiver or the ``drop_filter`` discards it, else
        it interrupts the CPU and joins its message's reassembly.  Per
        complete message: the protocol charge, then the handler.  Overhead
        is a float sum per node, so the order is part of the model:
        interrupt charge, protocol charge, then whatever the handler charges.
        """
        node = self.node
        if not node.alive or (self.drop_filter is not None and self.drop_filter(packet)):
            self.stats.packets_discarded += 1
            return
        stats = self.stats
        stats.interrupts += 1
        # Both charges are Node.charge_overhead's two additions, written out:
        # the costs are validated non-negative, and adding 0.0 is what its
        # guard skips, so the sums are the same.
        cpu = node.cost_model.cpu
        cost = cpu.interrupt_cost
        node._overhead_pending += cost
        node.stats.overhead_time += cost
        msg = packet.message
        if packet.count != 1:
            received = self._partial.get(msg.msg_id, 0) + 1
            if received < packet.count:
                self._partial[msg.msg_id] = received
                return
            self._partial.pop(msg.msg_id, None)
        cost = cpu.protocol_cost
        node._overhead_pending += cost
        node.stats.overhead_time += cost
        try:
            handler = node._handlers[msg.kind]
        except KeyError:
            raise NetworkError(
                f"node {node.node_id} received {msg.kind!r} but has no handler for it"
            ) from None
        handler(msg)

    def drop_partial_state(self) -> None:
        """Forget all partially reassembled messages (used on node crash)."""
        self._partial.clear()
