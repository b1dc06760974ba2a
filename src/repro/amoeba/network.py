"""Simulated interconnects.

Two network models are provided:

* :class:`EthernetNetwork` — the paper's setting: a single shared 10 Mb/s
  medium on which only one packet is in flight at a time and every attached
  NIC sees broadcast packets.  Contention for the medium is modelled as one
  :class:`Timeline`, so heavy communication naturally flattens speedup curves.
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
from .message import Message

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


class Timeline:
    """One transmitter — the shared medium, or one node's output link.

    It sends one packet at a time in the order they are handed over, so the
    whole queue is one number: when the last packet handed over will have left.
    """

    __slots__ = ("free_at", "busy")

    def __init__(self) -> None:
        #: Virtual time at which everything handed over so far has left.
        self.free_at = 0.0
        #: Transmit seconds handed over so far (those still ahead of ``now`` too).
        self.busy = 0.0

    def utilization(self, now: float) -> float:
        """Fraction of ``[0, now]`` spent transmitting."""
        if now <= 0:
            return 0.0
        return min(1.0, (self.busy - max(0.0, self.free_at - now)) / now)


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


class BaseNetwork:
    """Common functionality shared by the network models.

    The simulated transport: delivery happens through virtual-time events,
    messages fragment into packets, and loss is injected deterministically
    from a named rng stream.  The real-process backend moves messages over
    UDP sockets instead (:class:`repro.net.udp.UdpTransport`); what
    a broadcast group reads of either is
    :class:`~repro.amoeba.broadcast.group.GroupTransport`.
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
        #: NICs in ascending node id, rebuilt on attach: the broadcast fan-out
        #: walks this every packet, and nodes only ever attach (never detach).
        self._nic_order: List["NetworkInterface"] = []
        self._loss_rng = sim.rng.stream(f"{name}.loss")

    # -- attachment ------------------------------------------------------ #

    def attach(self, nic: "NetworkInterface") -> None:
        """Attach a NIC; its ``node_id`` becomes addressable on this network."""
        if nic.node_id in self._nics:
            raise NetworkError(f"node {nic.node_id} already attached to {self.name}")
        self._nics[nic.node_id] = nic
        self._nic_order = [self._nics[node_id] for node_id in sorted(self._nics)]
        nic.network = self

    def nic_for(self, node_id: int) -> "NetworkInterface":
        try:
            return self._nics[node_id]
        except KeyError:
            raise RoutingError(f"no node {node_id} attached to network {self.name!r}") from None

    @property
    def node_ids(self) -> List[int]:
        return [nic.node_id for nic in self._nic_order]

    @property
    def lossy(self) -> bool:
        return self.params.loss_rate > 0.0

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
        """Hand ``msg`` to its transmitter: one arrival event per packet.

        A transmitter sends one packet at a time in hand-over order, so when
        each packet leaves is known here: it starts when the previous one has
        left (or now) and takes its transmit time.  Its arrival is scheduled
        one latency after that; nothing fires in between, so an arrival ties
        with other events of its instant in the order of this call, not of the
        end of its transmission.  ``on_sent`` is invoked (in kernel context)
        once the final packet of the message has left the sender — the one
        extra event, and only for a caller that asks.
        """
        if msg.is_broadcast:
            if not self.supports_broadcast:
                raise NetworkError(f"network {self.name!r} does not support hardware broadcast")
            nic = None
        else:
            # Validate the destination eagerly so misrouting fails loudly.
            nic = self.nic_for(msg.dst)
        stats = self.stats
        stats.note_message(msg)
        sim = self.sim
        params = self.params
        latency = params.latency
        schedule_at = sim.schedule_at
        wire = self._transmitter(msg.src)
        count = params.packets_for(msg.size)
        remaining = msg.size
        done = max(sim.now, wire.free_at)
        for index in range(count):
            chunk = min(params.packet_size, remaining)
            remaining -= chunk
            payload = max(1, chunk)
            packet = Packet(msg, index, count, payload)
            duration = params.transmit_time(payload)
            wire.busy += duration
            done += duration
            stats.packets_sent += 1
            stats.wire_bytes += payload + params.packet_overhead_bytes
            if on_sent is not None and index == count - 1:
                # Before the arrival, as it was called before: they tie at zero latency.
                schedule_at(done, on_sent, msg)
            if nic is None:
                schedule_at(done + latency, self._arrive_broadcast, packet)
            else:
                schedule_at(done + latency, self._arrive, packet, nic)
        wire.free_at = done

    def _transmitter(self, src: int) -> Timeline:
        """The timeline ``src``'s packets queue on."""
        raise NotImplementedError

    # -- delivery --------------------------------------------------------- #

    def _arrive(self, packet: Packet, nic: "NetworkInterface") -> None:
        """One unicast packet reaches its destination, unless lost on the way."""
        loss_rate = self.params.loss_rate
        if loss_rate > 0.0 and self._loss_rng.random() < loss_rate:
            self.stats.packets_dropped += 1
            return
        nic.receive_packet(packet)

    def _arrive_broadcast(self, packet: Packet) -> None:
        """One broadcast packet reaches every attached NIC except the sender's.

        All copies share the same propagation latency, so one event calls each
        NIC in ascending node-id order instead of one event per member (the
        O(members) hot spot at 64+ nodes).  Loss is drawn per destination, in
        that order, so the rng stream's draw sequence is that of per-copy events.
        """
        sender = packet.message.src
        loss_rate = self.params.loss_rate
        for nic in self._nic_order:
            if nic.node_id == sender:
                continue
            if loss_rate > 0.0 and self._loss_rng.random() < loss_rate:
                self.stats.packets_dropped += 1
                continue
            nic.receive_packet(packet)


class EthernetNetwork(BaseNetwork):
    """A shared-medium broadcast network (one transmission at a time)."""

    supports_broadcast = True

    def __init__(
        self, sim: "Simulator", params: Optional[NetworkParams] = None, name: str = "ethernet"
    ) -> None:
        super().__init__(sim, params, name)
        self.medium = Timeline()

    def _transmitter(self, src: int) -> Timeline:
        return self.medium

    def utilization(self) -> float:
        """Fraction of elapsed virtual time during which the medium was busy."""
        return self.medium.utilization(self.sim.now)


class SwitchedNetwork(BaseNetwork):
    """A switched point-to-point network without hardware broadcast.

    Each source node owns an output link with a timeline of its own, so a
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
        self._links: Dict[int, Timeline] = {}

    def attach(self, nic: "NetworkInterface") -> None:
        super().attach(nic)
        self._links[nic.node_id] = Timeline()

    def _transmitter(self, src: int) -> Timeline:
        return self._links[src]

    def link_utilization(self, node_id: int) -> float:
        """Utilization of one node's output link."""
        return self._links[node_id].utilization(self.sim.now)
