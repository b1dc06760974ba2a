"""Simulated interconnects.

Two network models are provided:

* :class:`EthernetNetwork` — the paper's setting: a single shared 10 Mb/s
  medium on which only one packet is in flight at a time and every attached
  NIC sees broadcast packets.  Contention for the medium is modelled with a
  FIFO resource, so heavy communication naturally flattens speedup curves.
* :class:`SwitchedNetwork` — a point-to-point network without hardware
  broadcast (each source serialises its own transmissions but different
  sources do not contend).  This is the substrate for the point-to-point
  runtime system.

Both models fragment messages into packets, apply per-packet latency, support
probabilistic packet loss for failure-injection tests, and keep detailed
traffic statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..config import NetworkParams
from ..errors import NetworkError, RoutingError
from ..sim.resources import FifoResource
from .message import Message
from .transport import Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Simulator
    from .nic import NetworkInterface


@dataclass
class Packet:
    """One fragment of a :class:`Message` on the wire."""

    message: Message
    index: int
    count: int
    payload_bytes: int

    @property
    def is_last(self) -> bool:
        return self.index == self.count - 1


@dataclass
class NetworkStats:
    """Aggregate traffic statistics for one network instance."""

    messages_sent: int = 0
    unicast_messages: int = 0
    broadcast_messages: int = 0
    packets_sent: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    packets_dropped: int = 0
    deliveries: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def note_message(self, msg: Message) -> None:
        self.messages_sent += 1
        if msg.is_broadcast:
            self.broadcast_messages += 1
        else:
            self.unicast_messages += 1
        self.payload_bytes += msg.size
        self.by_kind[msg.kind] = self.by_kind.get(msg.kind, 0) + 1
        self.bytes_by_kind[msg.kind] = self.bytes_by_kind.get(msg.kind, 0) + msg.size


class BaseNetwork(Transport):
    """Common functionality shared by the network models.

    This is the *simulated* implementation of the
    :class:`~repro.amoeba.transport.Transport` seam: delivery happens through
    virtual-time events, messages fragment into packets, and loss is injected
    deterministically from a named rng stream.  The real-process backend
    implements the same seam over asyncio UDP sockets
    (:class:`repro.net.udp.UdpTransport`).
    """

    supports_broadcast = False

    def __init__(
        self, sim: "Simulator", params: Optional[NetworkParams] = None, name: str = "net"
    ) -> None:
        self.sim = sim
        self.params = params or NetworkParams()
        self.name = name
        self.stats = NetworkStats()
        self._nics: Dict[int, "NetworkInterface"] = {}
        #: Sorted node ids, rebuilt on attach: the broadcast fan-out walks
        #: this every packet, and nodes only ever attach (never detach).
        self._node_order: List[int] = []
        self._loss_rng = sim.rng.stream(f"{name}.loss")

    # -- attachment ------------------------------------------------------ #

    def attach(self, nic: "NetworkInterface") -> None:
        """Attach a NIC; its ``node_id`` becomes addressable on this network."""
        if nic.node_id in self._nics:
            raise NetworkError(f"node {nic.node_id} already attached to {self.name}")
        self._nics[nic.node_id] = nic
        self._node_order = sorted(self._nics)
        nic.network = self

    def nic_for(self, node_id: int) -> "NetworkInterface":
        try:
            return self._nics[node_id]
        except KeyError:
            raise RoutingError(f"no node {node_id} attached to network {self.name!r}") from None

    @property
    def node_ids(self) -> List[int]:
        return list(self._node_order)

    def peer_alive(self, node_id: int) -> bool:
        """Is the machine behind ``node_id`` up?

        The failure-detection primitive the RPC layer consults before
        blocking on a reply: talking to a machine already known dead fails
        fast instead of waiting on a reply that cannot come.
        """
        nic = self._nics.get(node_id)
        return nic is not None and nic.node.alive

    # -- sending ---------------------------------------------------------- #

    def send(self, msg: Message, on_sent: Optional[Callable[[Message], None]] = None) -> None:
        """Queue ``msg`` for transmission.

        ``on_sent`` is invoked (in kernel context) once the final packet of
        the message has left the sender.
        """
        if msg.is_broadcast and not self.supports_broadcast:
            raise NetworkError(f"network {self.name!r} does not support hardware broadcast")
        if not msg.is_broadcast:
            # Validate the destination eagerly so misrouting fails loudly.
            self.nic_for(msg.dst)
        self.stats.note_message(msg)
        packets = self._fragment(msg)
        self._transmit_packets(msg, packets, on_sent)

    def _fragment(self, msg: Message) -> List[Packet]:
        count = self.params.packets_for(msg.size)
        packets = []
        remaining = msg.size
        for index in range(count):
            chunk = min(self.params.packet_size, remaining)
            remaining -= chunk
            packets.append(Packet(msg, index, count, max(1, chunk)))
        return packets

    def _transmit_packets(
        self, msg: Message, packets: List[Packet], on_sent: Optional[Callable[[Message], None]]
    ) -> None:
        raise NotImplementedError

    # -- delivery --------------------------------------------------------- #

    def _on_wire_done(self, packet: Packet, on_sent: Optional[Callable[[Message], None]]) -> None:
        """One packet has left the sender: count it and start its propagation."""
        self.stats.packets_sent += 1
        self.stats.wire_bytes += packet.payload_bytes + self.params.packet_overhead_bytes
        if packet.message.is_broadcast:
            self._broadcast_packet(packet)
        else:
            self._deliver_packet(packet, packet.message.dst)
        if packet.is_last and on_sent is not None:
            on_sent(packet.message)

    def _deliver_packet(self, packet: Packet, dst: int) -> None:
        """Deliver one packet to one destination after the propagation latency."""
        nic = self._nics.get(dst)
        if nic is None:
            return
        if self.params.loss_rate > 0.0 and self._loss_rng.random() < self.params.loss_rate:
            self.stats.packets_dropped += 1
            return
        self.sim.schedule(self.params.latency, nic.receive_packet, packet)

    def _broadcast_packet(self, packet: Packet) -> None:
        """Fan one packet out to every attached NIC except the sender.

        All copies share the same propagation latency, so instead of one
        scheduled event per member (the O(members) hot spot at 64+ nodes)
        the surviving destinations are delivered by **one** event that calls
        each NIC in ascending node-id order.  The per-destination events
        would have been scheduled back to back with consecutive sequence
        numbers — nothing could interleave between them — so firing them
        inside one callback, in the same order, is exactly equivalent.
        Loss draws happen here, per destination in ascending id order, to
        keep the rng stream's draw sequence identical to the per-event
        implementation.
        """
        sender = packet.message.src
        nics = self._nics
        loss_rate = self.params.loss_rate
        if loss_rate > 0.0:
            rng = self._loss_rng
            targets = []
            for node_id in self._node_order:
                if node_id == sender:
                    continue
                if rng.random() < loss_rate:
                    self.stats.packets_dropped += 1
                else:
                    targets.append(nics[node_id])
        else:
            targets = [nics[nid] for nid in self._node_order if nid != sender]
        if targets:
            self.sim.schedule(self.params.latency, self._deliver_broadcast, packet, targets)

    def _deliver_broadcast(self, packet: Packet, targets: List["NetworkInterface"]) -> None:
        for nic in targets:
            nic.receive_packet(packet)


class EthernetNetwork(BaseNetwork):
    """A shared-medium broadcast network (one transmission at a time)."""

    supports_broadcast = True

    def __init__(
        self, sim: "Simulator", params: Optional[NetworkParams] = None, name: str = "ethernet"
    ) -> None:
        super().__init__(sim, params, name)
        self.medium = FifoResource(sim, capacity=1, name=f"{name}.medium")

    def _transmit_packets(
        self, msg: Message, packets: List[Packet], on_sent: Optional[Callable[[Message], None]]
    ) -> None:
        for packet in packets:
            duration = self.params.transmit_time(packet.payload_bytes)
            self.medium.use(duration, self._on_wire_done, packet, on_sent)

    def utilization(self) -> float:
        """Fraction of elapsed virtual time during which the medium was busy."""
        return self.medium.utilization()


class SwitchedNetwork(BaseNetwork):
    """A switched point-to-point network without hardware broadcast.

    Each source node owns an output link modelled as a FIFO resource, so a
    node's transmissions are serialised but different nodes transmit
    concurrently (as in a full-duplex switch).
    """

    supports_broadcast = False

    def __init__(
        self, sim: "Simulator", params: Optional[NetworkParams] = None, name: str = "switch"
    ) -> None:
        if params is None:
            params = NetworkParams(supports_broadcast=False)
        super().__init__(sim, params, name)
        self._links: Dict[int, FifoResource] = {}

    def attach(self, nic: "NetworkInterface") -> None:
        super().attach(nic)
        self._links[nic.node_id] = FifoResource(
            self.sim, capacity=1, name=f"{self.name}.link{nic.node_id}"
        )

    def _transmit_packets(
        self, msg: Message, packets: List[Packet], on_sent: Optional[Callable[[Message], None]]
    ) -> None:
        link = self._links[msg.src]
        for packet in packets:
            duration = self.params.transmit_time(packet.payload_bytes)
            link.use(duration, self._on_wire_done, packet, on_sent)

    def link_utilization(self, node_id: int) -> float:
        """Utilization of one node's output link."""
        return self._links[node_id].utilization()
