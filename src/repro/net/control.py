"""The JSON-lines control plane between the harness and node processes.

Node processes connect *out* to the harness's TCP listener (avoiding every
port-race a listen-per-child design would invite), introduce themselves with
a ``hello`` carrying their node id and the UDP data-plane port they bound,
and then execute harness commands strictly one at a time, read on the
node's loop (:class:`~repro.net.node_process.NodeServer`).  Commands and
replies are single JSON objects, one per line — small, human-debuggable, and
reusing nothing of the data plane's framing on purpose (a control-plane bug
should never masquerade as a protocol bug).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from ..errors import NetworkError

#: Ceiling on one control line; a status or collect reply for the workloads
#: the backend runs is a few KiB, so anything near this is a framing bug.
MAX_LINE = 8 * 1024 * 1024


def encode_line(obj: Dict[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


class NodeConnection:
    """Harness side: a blocking per-node control connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self.node_id: Optional[int] = None
        self.udp_port: Optional[int] = None

    def send(self, obj: Dict[str, Any]) -> None:
        self._sock.sendall(encode_line(obj))

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        self._sock.settimeout(timeout)
        line = self._rfile.readline(MAX_LINE + 1)
        if not line:
            raise NetworkError(
                f"node {self.node_id} closed its control connection")
        if len(line) > MAX_LINE:
            raise NetworkError(f"oversized control line: {len(line)} bytes")
        return json.loads(line.decode("utf-8"))

    def request(self, obj: Dict[str, Any],
                timeout: Optional[float] = None) -> Dict[str, Any]:
        """Send one command and wait for its (single) reply."""
        self.send(obj)
        reply = self.recv(timeout)
        if not reply.get("ok", False):
            raise NetworkError(
                f"node {self.node_id} failed {obj.get('cmd')!r}: "
                f"{reply.get('error')}\n{reply.get('traceback', '')}")
        return reply

    def read_hello(self, timeout: float) -> None:
        hello = self.recv(timeout)
        if not hello.get("hello"):
            raise NetworkError(f"unexpected first control line: {hello!r}")
        self.node_id = int(hello["node_id"])
        self.udp_port = int(hello["udp_port"])

    def close(self) -> None:
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
