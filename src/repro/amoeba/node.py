"""Processor-pool nodes.

A :class:`Node` models one CPU-plus-memory pair of the Amoeba processor pool.
It owns a NIC, a per-node microkernel (:class:`repro.amoeba.kernel.AmoebaKernel`),
a dispatch table from message kinds (ports) to handlers, and the accounting
machinery through which network-protocol CPU overhead is charged to the
application processes running on the node — the effect that visibly limits
speedup for update-heavy applications such as ACP in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..config import CostModel
from ..errors import NetworkError
from .message import Message, make_message
from .nic import NetworkInterface

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.kernel import Simulator
    from .kernel import AmoebaKernel
    from .network import BaseNetwork


@dataclass
class NodeStats:
    """Per-node accounting."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    overhead_time: float = 0.0
    overhead_absorbed: float = 0.0


class Node:
    """One simulated machine of the processor pool."""

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        cost_model: CostModel,
        network: Optional["BaseNetwork"] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.cost_model = cost_model
        self.nic = NetworkInterface(self)
        self.stats = NodeStats()
        self.alive = True
        #: The dispatch table, message kind -> handler; the node's NIC calls
        #: the handler of a complete message straight out of it.
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        #: CPU overhead accrued by protocol processing that has not yet been
        #: absorbed into an application process's virtual time.
        self._overhead_pending = 0.0
        #: Callbacks fired (synchronously) when this node crashes; protocol
        #: layers use them to stop waiting on acknowledgements from the dead.
        self._crash_listeners: List[Callable[[], None]] = []
        #: Callbacks fired (synchronously) when this node recovers; protocol
        #: layers use them to start the rejoin catch-up before the member is
        #: treated as healthy again.
        self._recover_listeners: List[Callable[[], None]] = []
        self.network: Optional["BaseNetwork"] = None
        if network is not None:
            network.attach(self.nic)
            self.network = network
        # The per-node microkernel is created lazily to avoid an import cycle.
        from .kernel import AmoebaKernel  # local import by design

        self.kernel: "AmoebaKernel" = AmoebaKernel(self)

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def register_handler(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` for messages whose ``kind`` matches exactly."""
        if kind in self._handlers:
            raise NetworkError(f"node {self.node_id} already has a handler for {kind!r}")
        self._handlers[kind] = handler

    def send(self, msg: Message, on_sent: Optional[Callable[[Message], None]] = None) -> None:
        """Send a message on the attached network."""
        if self.network is None:
            raise NetworkError(f"node {self.node_id} is not attached to a network")
        if not self.alive:
            return
        self.stats.messages_sent += 1
        self.stats.bytes_sent += msg.size
        self.network.send(msg, on_sent)

    #: Convenience constructor stamping this node as the source.
    make_message = make_message

    # ------------------------------------------------------------------ #
    # CPU overhead accounting
    # ------------------------------------------------------------------ #

    def charge_overhead(self, duration: float) -> None:
        """Charge protocol-processing CPU time to this node.

        The time is not consumed immediately (protocol handlers run in event
        context); instead it accumulates and is absorbed by the next
        application process on this node that synchronises with the clock,
        modelling the CPU being stolen from the application.
        """
        if duration <= 0:
            return
        self._overhead_pending += duration
        self.stats.overhead_time += duration

    def drain_overhead(self) -> float:
        """Return and clear the pending overhead (called by application processes)."""
        pending = self._overhead_pending
        if pending:
            self._overhead_pending = 0.0
            self.stats.overhead_absorbed += pending
        return pending

    @property
    def pending_overhead(self) -> float:
        return self._overhead_pending

    # ------------------------------------------------------------------ #
    # Failure injection
    # ------------------------------------------------------------------ #

    def on_crash(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when (and each time) this node crashes."""
        self._crash_listeners.append(callback)

    def on_recover(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when (and each time) this node recovers."""
        self._recover_listeners.append(callback)

    def crash(self) -> None:
        """Simulate a node crash: all subsequent traffic to the node is dropped."""
        self.alive = False
        self.nic.drop_partial_state()
        for callback in list(self._crash_listeners):
            callback()

    def recover(self) -> None:
        """Bring a crashed node back (its volatile protocol state stays lost).

        Recovery listeners run after the node is marked alive so they can
        send and receive; they are responsible for re-seeding the protocol
        state that died with the crash (replica copies, delivery history)
        before the member serves the cluster again.
        """
        self.alive = True
        for callback in list(self._recover_listeners):
            callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id}{'' if self.alive else ' (crashed)'}>"
