"""UDP transport — the real-socket counterpart of the simulated network.

One :class:`UdpTransport` lives in each node process.  It binds a
non-blocking datagram socket on the loopback interface, which the node's loop
watches (:meth:`~repro.net.host.RealNode.watch`), reading one frame-sized
datagram per readiness (:meth:`UdpTransport.on_readable`).  It learns the
full ``node_id -> (host, port)`` peer table at boot (the launcher binds every
node's socket before it forks them), and then moves
whole messages: unicast goes to one peer, broadcast (``dst is None``) fans
out one datagram per peer, mirroring the simulator's hardware-broadcast
semantics (the sender never hears its own broadcast).

UDP gives us the same failure model the simulator injects deterministically:
datagrams may be dropped (kernel buffers, the test-only ``drop_filter``
hooks) but are never corrupted-and-accepted or spontaneously duplicated by
this layer.  All loss recovery lives in the protocols above, exactly as in
the simulated stack.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..amoeba.message import Message
from ..errors import NetworkError, RoutingError
from .wire import MAX_FRAME, decode_message, encode_message


@dataclass
class UdpStats:
    """Traffic counters for one transport instance."""

    messages_sent: int = 0
    unicast_messages: int = 0
    broadcast_messages: int = 0
    datagrams_sent: int = 0
    datagrams_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    send_drops: int = 0
    recv_drops: int = 0
    decode_errors: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


#: Receive size: one byte past the largest frame ``decode_message`` accepts,
#: so a longer datagram arrives truncated yet still too long for it, and
#: counts as a decode error instead of passing as a shorter frame.
_RECV_SIZE = MAX_FRAME + 5


class UdpTransport:
    """Transport over UDP unicast with configurable fan-out.

    ``drop_tx`` / ``drop_rx`` are loss-injection hooks for tests: given the
    message (and, for tx, the destination node id), return True to silently
    drop that datagram — the real-socket analogue of the simulated NIC's
    ``drop_filter``.
    """

    supports_broadcast = True
    lossy = True

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.stats = UdpStats()
        self.on_message: Optional[Callable[[Message], None]] = None
        self.drop_tx: Optional[Callable[[Message, int], bool]] = None
        self.drop_rx: Optional[Callable[[Message], bool]] = None
        self._peers: Dict[int, Tuple[str, int]] = {}
        self._node_ids: List[int] = []
        self._dead: set = set()
        self.sock: Optional[socket.socket] = None

    # -- lifecycle -------------------------------------------------------- #

    def open(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the datagram socket (``sock``); returns the actual local port."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind((host, port))
        except BaseException:
            sock.close()
            raise
        self.sock = sock
        return self.port

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    @property
    def port(self) -> int:
        if self.sock is None:
            raise NetworkError("transport is not open")
        return self.sock.getsockname()[1]

    # -- peer table ------------------------------------------------------- #

    def set_peers(self, peers: Dict[int, Tuple[str, int]]) -> None:
        """Install the cluster's ``node_id -> (host, port)`` table."""
        self._peers = dict(peers)
        self._node_ids = sorted(self._peers)

    @property
    def node_ids(self) -> List[int]:
        """Every node of the cluster, ascending (shared list: do not mutate)."""
        return self._node_ids

    def peer_alive(self, node_id: int) -> bool:
        """Is the peer believed alive?

        The transport has no failure detector of its own; the runtime's
        heartbeat layer calls :meth:`mark_dead` and this just reports it.
        """
        return node_id in self._peers and node_id not in self._dead

    def mark_dead(self, node_id: int) -> None:
        self._dead.add(node_id)

    # -- sending ---------------------------------------------------------- #

    def send(self, msg: Message, on_sent: Optional[Callable[[Message], None]] = None) -> None:
        if self.sock is None:
            raise NetworkError("transport is not open")
        self.stats.messages_sent += 1
        self.stats.by_kind[msg.kind] = self.stats.by_kind.get(msg.kind, 0) + 1
        frame = encode_message(msg)
        if msg.is_broadcast:
            self.stats.broadcast_messages += 1
            for node_id in self._node_ids:
                if node_id == self.node_id:
                    continue
                self._send_frame(msg, node_id, frame)
        else:
            self.stats.unicast_messages += 1
            if msg.dst not in self._peers:
                raise RoutingError(f"no node {msg.dst} in the peer table")
            self._send_frame(msg, msg.dst, frame)
        if on_sent is not None:
            on_sent(msg)

    def _send_frame(self, msg: Message, dst: int, frame: bytes) -> None:
        if self.drop_tx is not None and self.drop_tx(msg, dst):
            self.stats.send_drops += 1
            return
        try:
            self.sock.sendto(frame, self._peers[dst])
        except OSError:
            # A full socket buffer or an ICMP error left by a dead peer: the
            # datagram is lost, as UDP may lose any, and the protocols above
            # recover it.
            self.stats.send_drops += 1
            return
        self.stats.datagrams_sent += 1
        self.stats.bytes_sent += len(frame)

    # -- receiving -------------------------------------------------------- #

    def on_readable(self) -> None:
        """Read one datagram: the loop interleaves datagrams with timers
        and the control plane, a pass each."""
        try:
            data = self.sock.recv(_RECV_SIZE)
        except OSError:
            # Nothing to read after all, or an ICMP port-unreachable for a
            # dead peer; the failure detector above handles peer death.
            return
        self._on_datagram(data)

    def _on_datagram(self, data: bytes) -> None:
        self.stats.datagrams_received += 1
        self.stats.bytes_received += len(data)
        try:
            msg = decode_message(data)
        except (NetworkError, ValueError, KeyError, TypeError):
            self.stats.decode_errors += 1
            return
        if self.drop_rx is not None and self.drop_rx(msg):
            self.stats.recv_drops += 1
            return
        if self.on_message is not None:
            self.on_message(msg)

    def summary(self) -> Dict[str, int]:
        """JSON-friendly counter snapshot for the control plane."""
        return {
            "messages_sent": self.stats.messages_sent,
            "unicast": self.stats.unicast_messages,
            "broadcast": self.stats.broadcast_messages,
            "datagrams_sent": self.stats.datagrams_sent,
            "datagrams_received": self.stats.datagrams_received,
            "bytes_sent": self.stats.bytes_sent,
            "bytes_received": self.stats.bytes_received,
            "send_drops": self.stats.send_drops,
            "recv_drops": self.stats.recv_drops,
            "decode_errors": self.stats.decode_errors,
        }
