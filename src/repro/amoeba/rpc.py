"""Remote procedure call between threads on different nodes.

The Amoeba microkernel lets any thread communicate transparently with any
other thread through RPC.  The reproduction models the standard
request/processing/reply cycle:

* the client thread flushes its pending compute time, sends a request
  message and blocks;
* the server node receives the request (paying interrupt and protocol
  costs), runs the registered handler — either directly in event context for
  non-blocking handlers or in a freshly spawned server thread when the
  handler may block — and sends the reply;
* the client absorbs its node's accumulated overhead and resumes with the
  reply value.

Handlers receive an :class:`RpcRequest` and return the reply payload (or a
``(payload, size)`` tuple to override the reply's size estimate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..errors import RpcError, RpcPeerDeadError, RpcTimeoutError
from .message import Message, estimate_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.process import SimProcess
    from .node import Node

_rpc_ids = itertools.count(1)

REQUEST_KIND = "rpc.request"
REPLY_KIND = "rpc.reply"


@dataclass
class RpcRequest:
    """What a service handler sees for one incoming call."""

    rpc_id: int
    port: str
    client_node: int
    server_node: int
    payload: Any
    size: int


@dataclass
class RpcReply:
    """Wrapper a handler may return to control the reply's simulated size."""

    payload: Any
    size: int


@dataclass
class _PendingCall:
    process: "SimProcess"
    server_node: int = -1
    timeout_timer: Optional[int] = None
    reply: Any = None
    completed: bool = False
    timed_out: bool = False
    peer_dead: bool = False


class RpcEndpoint:
    """Per-node RPC engine: client stubs plus the service dispatch table."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.sim = node.sim
        self._services: Dict[str, Tuple[Callable[[RpcRequest], Any], bool, float]] = {}
        self._pending: Dict[int, _PendingCall] = {}
        self.calls_made = 0
        self.calls_served = 0
        node.register_handler(REQUEST_KIND, self._on_request)
        node.register_handler(REPLY_KIND, self._on_reply)

    # ------------------------------------------------------------------ #
    # Server side
    # ------------------------------------------------------------------ #

    def register_service(
        self,
        port: str,
        handler: Callable[[RpcRequest], Any],
        may_block: bool = False,
        service_cost: float = 0.0,
    ) -> None:
        """Register ``handler`` for calls addressed to ``port`` on this node.

        ``may_block`` selects whether the handler runs in a dedicated server
        thread (allowing it to use blocking primitives) or directly in event
        context.  ``service_cost`` is CPU time charged to the node per call.
        """
        if port in self._services:
            raise RpcError(f"node {self.node.node_id} already serves port {port!r}")
        self._services[port] = (handler, may_block, service_cost)

    def _on_request(self, msg: Message) -> None:
        port = msg.headers["port"]
        entry = self._services.get(port)
        if entry is None:
            self._send_reply(msg, error=f"no service {port!r} on node {self.node.node_id}")
            return
        handler, may_block, service_cost = entry
        request = RpcRequest(
            rpc_id=msg.headers["rpc_id"],
            port=port,
            client_node=msg.src,
            server_node=self.node.node_id,
            payload=msg.payload,
            size=msg.size,
        )
        if service_cost:
            self.node.charge_overhead(service_cost)
        self.calls_served += 1
        if may_block:
            self.node.kernel.spawn_thread(
                self._run_handler,
                handler,
                request,
                msg,
                name=f"rpc:{port}",
                daemon=True,
            )
        else:
            self._run_handler(handler, request, msg)

    def _run_handler(
        self, handler: Callable[[RpcRequest], Any], request: RpcRequest, msg: Message
    ) -> None:
        try:
            result = handler(request)
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            self._send_reply(msg, error=f"{type(exc).__name__}: {exc}")
            return
        self._send_reply(msg, result=result)

    def _send_reply(
        self, request_msg: Message, result: Any = None, error: Optional[str] = None
    ) -> None:
        payload, size = result, 0
        if isinstance(result, RpcReply):
            payload, size = result.payload, result.size
        reply = Message(
            src=self.node.node_id,
            dst=request_msg.src,
            kind=REPLY_KIND,
            payload=payload,
            size=size if size > 0 else max(1, estimate_size(payload)),
            headers={"rpc_id": request_msg.headers["rpc_id"], "error": error,},
        )
        self.node.send(reply)

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #

    def call(
        self,
        proc: "SimProcess",
        server_node: int,
        port: str,
        payload: Any = None,
        size: int = 0,
        timeout: Optional[float] = None,
    ) -> Any:
        """Perform a blocking RPC from ``proc`` to ``port`` on ``server_node``.

        Local calls (``server_node`` equal to this node) still pay the
        operation dispatch cost but skip the network entirely.
        """
        rpc_id = next(_rpc_ids)
        self.calls_made += 1
        cpu = self.node.cost_model.cpu

        if server_node == self.node.node_id:
            # Local fast path: no network, just dispatch cost.
            entry = self._services.get(port)
            if entry is None:
                raise RpcError(f"no service {port!r} on node {self.node.node_id}")
            handler, _may_block, service_cost = entry
            proc.advance(cpu.operation_dispatch_cost + service_cost)
            request = RpcRequest(
                rpc_id,
                port,
                self.node.node_id,
                self.node.node_id,
                payload,
                size or max(1, estimate_size(payload)),
            )
            result = handler(request)
            if isinstance(result, RpcReply):
                return result.payload
            return result

        if self.node.network is not None and not self.node.network.peer_alive(server_node):
            # The failure detector already knows the server is down: fail
            # fast instead of parking on a reply that cannot come.
            raise RpcPeerDeadError(
                f"RPC {port!r} from node {self.node.node_id} refused: "
                f"node {server_node} is crashed"
            )
        pending = _PendingCall(process=proc, server_node=server_node)
        self._pending[rpc_id] = pending
        request = Message(
            src=self.node.node_id,
            dst=server_node,
            kind=REQUEST_KIND,
            payload=payload,
            size=size,
            headers={"rpc_id": rpc_id, "port": port},
        )
        proc.advance(cpu.operation_dispatch_cost)
        proc.absorb_overhead(self.node.drain_overhead())
        proc.flush()
        if timeout is not None:
            pending.timeout_timer = self.node.kernel.set_timer(timeout, self._on_timeout, rpc_id)
        self.node.send(request)
        proc.suspend()
        self._pending.pop(rpc_id, None)
        if pending.timed_out:
            raise RpcTimeoutError(
                f"RPC {port!r} from node {self.node.node_id} to node {server_node} timed out"
            )
        if pending.peer_dead:
            raise RpcPeerDeadError(
                f"RPC {port!r} from node {self.node.node_id} failed: " f"node {server_node} crashed"
            )
        proc.absorb_overhead(self.node.drain_overhead())
        error = pending.reply.headers.get("error")
        if error:
            raise RpcError(error)
        return pending.reply.payload

    def _on_reply(self, msg: Message) -> None:
        pending = self._pending.get(msg.headers["rpc_id"])
        if pending is None or pending.completed:
            return
        pending.completed = True
        pending.reply = msg
        if pending.timeout_timer is not None:
            self.node.kernel.cancel_timer(pending.timeout_timer)
        pending.process.wake()

    def _on_timeout(self, rpc_id: int) -> None:
        pending = self._pending.get(rpc_id)
        if pending is None or pending.completed:
            return
        pending.completed = True
        pending.timed_out = True
        pending.process.wake()

    def pending_to(self, server_node: int) -> int:
        """Outstanding calls from this endpoint addressed to ``server_node``.

        A planned drain waits for this to reach zero everywhere before
        retiring the machine, so no client ever sees a dead-peer failure.
        """
        return sum(
            1
            for pending in self._pending.values()
            if pending.server_node == server_node and not pending.completed
        )

    def fail_pending_to(self, server_node: int) -> None:
        """Fail every outstanding call addressed to a crashed server.

        The cluster invokes this from its node-crash listeners, acting as
        the failure detector: a blocked client is woken and its ``call``
        raises :class:`~repro.errors.RpcPeerDeadError`, so protocol layers
        can re-route the request (e.g. to a recovered primary copy) instead
        of waiting forever on a machine that will never reply.
        """
        if not self.node.alive:
            # This endpoint's own machine is dead: its parked processes
            # died with it and must not be resurrected by another node's
            # crash notification.
            return
        for pending in list(self._pending.values()):
            if pending.server_node != server_node or pending.completed:
                continue
            pending.completed = True
            pending.peer_dead = True
            if pending.timeout_timer is not None:
                self.node.kernel.cancel_timer(pending.timeout_timer)
            pending.process.wake()
