"""UdpTransport under its node's loop: frame limits, fan-out, loss hooks, close.

Each test opens two or three transports on the loopback interface, each
watched by its own :class:`~repro.net.host.RealNode` loop on a thread of its
own, so every datagram crosses a real socket and a loop's reader, as it does
between node processes.
"""

from __future__ import annotations

import ast
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.amoeba.message import Message
from repro.errors import NetworkError
from repro.net.host import RealNode
from repro.net.udp import UdpTransport
from repro.net.wire import MAX_FRAME, encode_message

NET_SOURCES = Path(__file__).resolve().parents[2] / "src" / "repro" / "net"


class Transports:
    """``count`` open transports that know each other, each recording what
    reaches its ``on_message`` and read by its own node's loop."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.transports = []
        self.nodes = []
        self.threads = []
        self.received = {}

    def __enter__(self) -> "Transports":
        peers = {}
        for node_id in range(self.count):
            transport = UdpTransport(node_id)
            peers[node_id] = ("127.0.0.1", transport.open())
            self.received[node_id] = []
            transport.on_message = self.received[node_id].append
            node = RealNode(node_id, transport)
            node.watch(transport.sock, transport.on_readable)
            self.transports.append(transport)
            self.nodes.append(node)
            self.threads.append(threading.Thread(target=node.run, daemon=True))
        for transport in self.transports:
            transport.set_peers(peers)
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        for node, thread, transport in zip(self.nodes, self.threads, self.transports):
            node.halt()
            thread.join(5.0)
            assert not thread.is_alive()
            transport.close()

    def until(self, condition, timeout: float = 5.0) -> None:
        deadline = time.monotonic() + timeout
        while not condition():
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.005)

    def settle(self) -> None:
        """Give datagrams already sent on loopback time to arrive."""
        time.sleep(0.05)


def message(src: int, dst, body_bytes: int = 0, kind: str = "test") -> Message:
    """A small test message; given ``body_bytes``, padded so its frame body
    is exactly that long."""
    msg = Message(src=src, dst=dst, kind=kind, payload="", size=1, msg_id=7)
    if body_bytes:
        msg.payload = "x" * (body_bytes - len(encode_message(msg)) + 4)
        assert len(encode_message(msg)) == body_bytes + 4
    return msg


def send_raw(port: int, data: bytes) -> None:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
        raw.sendto(data, ("127.0.0.1", port))


@pytest.mark.parametrize("datagram_bytes", [MAX_FRAME, MAX_FRAME + 4])
def test_a_frame_up_to_the_largest_is_delivered(datagram_bytes):
    with Transports(2) as net:
        sent = message(0, 1, body_bytes=datagram_bytes - 4)
        net.transports[0].send(sent)
        net.until(lambda: net.received[1])
        [got] = net.received[1]
        assert got.payload == sent.payload and got.size == datagram_bytes
        assert net.transports[1].stats.bytes_received == datagram_bytes
        assert net.transports[1].stats.decode_errors == 0


@pytest.mark.parametrize("datagram", [
    # A well-formed prefix announcing a body one byte past the limit.
    (MAX_FRAME + 1).to_bytes(4, "big") + b"x" * (MAX_FRAME + 1),
    # Longer than the receive size: the read truncates it, and the
    # truncated datagram is still too long.
    b"x" * (MAX_FRAME + 5000),
    b"not a frame",
    len(b"[1,2]").to_bytes(4, "big") + b"[1,2]",
], ids=["one-byte-over", "truncated", "garbage", "wrong-fields"])
def test_a_datagram_that_is_no_frame_counts_one_decode_error(datagram):
    with Transports(2) as net:
        receiver = net.transports[1]
        send_raw(receiver.port, datagram)
        net.until(lambda: receiver.stats.datagrams_received == 1)
        # A good frame behind it still gets through.
        net.transports[0].send(message(0, 1))
        net.until(lambda: net.received[1])
        assert receiver.stats.decode_errors == 1
        assert [msg.src for msg in net.received[1]] == [0]


def test_a_broadcast_reaches_every_peer_and_not_the_sender():
    with Transports(3) as net:
        sender = net.transports[0]
        sender.send(message(0, None))
        net.until(lambda: net.received[1] and net.received[2])
        net.settle()
        assert [len(net.received[node]) for node in range(3)] == [0, 1, 1]
        assert sender.stats.broadcast_messages == 1
        assert sender.stats.datagrams_sent == 2
        assert sender.stats.datagrams_received == 0


def test_the_loss_hooks_count_their_drops():
    with Transports(3) as net:
        sender, receiver = net.transports[0], net.transports[2]
        sender.drop_tx = lambda msg, dst: dst == 1
        receiver.drop_rx = lambda msg: msg.kind == "lost"
        sender.send(message(0, None, kind="lost"))
        sender.send(message(0, None, kind="kept"))
        net.until(lambda: receiver.stats.datagrams_received == 2)
        net.settle()
        assert sender.stats.send_drops == 2 and sender.stats.datagrams_sent == 2
        assert receiver.stats.recv_drops == 1
        assert net.received[1] == []
        assert [msg.kind for msg in net.received[2]] == ["kept"]


def test_a_datagram_the_kernel_refuses_counts_as_a_send_drop():
    with Transports(2) as net:
        sender = net.transports[0]
        sender.set_peers({0: ("127.0.0.1", sender.port), 1: ("127.0.0.1", 0)})
        sender.send(message(0, 1))  # port 0: the kernel says EINVAL
        assert sender.stats.send_drops == 1
        assert sender.stats.datagrams_sent == 0


def test_a_closed_transport_delivers_nothing_and_leaves_no_reader():
    with Transports(2) as net:
        closed, node = net.transports[1], net.nodes[1]
        port, fd = closed.port, closed.sock.fileno()
        unwatched = threading.Event()

        def close_on_the_loop():
            node.unwatch(closed.sock)
            closed.close()
            unwatched.set()

        with node.lock:
            node.set_timer(0.0, close_on_the_loop)
        assert unwatched.wait(5.0)
        assert fd not in node._selector.get_map()
        closed.close()  # a second close is harmless
        net.transports[0].send(message(0, 1))
        send_raw(port, encode_message(message(0, 1)))
        net.settle()
        assert net.received[1] == []
        assert closed.stats.datagrams_received == 0
        with pytest.raises(NetworkError):
            closed.send(message(1, 0))
        # Its node's loop serves on without it: a timer still fires.
        fired = threading.Event()
        with node.lock:
            node.set_timer(0.0, fired.set)
        assert fired.wait(5.0)


def test_no_net_module_opens_an_asyncio_datagram_endpoint():
    """The datagram transport reads every datagram into a 256 KiB buffer;
    the node reads its socket itself, one frame-sized datagram at a time."""
    offenders = []
    for path in sorted(NET_SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "create_datagram_endpoint"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
