"""Cluster assembly: simulator + network + nodes + communication services.

:class:`Cluster` is the convenience object the runtime systems, applications
and benchmarks build on.  It wires together a simulator, an interconnect, the
requested number of processor-pool nodes (each with its RPC endpoint), and —
when the interconnect supports it — one totally-ordered broadcast group
spanning all nodes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..config import ClusterConfig
from ..errors import ConfigurationError
from ..sim.kernel import Simulator
from .network import BaseNetwork, EthernetNetwork, SwitchedNetwork
from .node import Node
from .rpc import RpcEndpoint


class Cluster:
    """A simulated Amoeba processor pool.

    Parameters
    ----------
    config:
        The cluster configuration (node count, cost model, seed).
    network_type:
        ``"ethernet"`` (shared medium with hardware broadcast — the paper's
        testbed) or ``"switched"`` (point-to-point only).
    """

    def __init__(
        self, config: Optional[ClusterConfig] = None, network_type: str = "ethernet"
    ) -> None:
        self.config = config or ClusterConfig()
        self.cost_model = self.config.cost_model
        self.sim = Simulator(
            seed=self.config.seed,
            work_unit_time=self.cost_model.cpu.work_unit_time,
        )
        self.network = self._build_network(network_type)
        self.nodes: List[Node] = [
            Node(self.sim, node_id, self.cost_model, network=self.network)
            for node_id in range(self.config.num_nodes)
        ]
        self.rpc: Dict[int, RpcEndpoint] = {node.node_id: RpcEndpoint(node) for node in self.nodes}
        # Failure detection: a node crash fails every RPC still waiting on
        # that machine, cluster-wide, so callers observe the death instead
        # of blocking on a reply that cannot come.  (The stand-in for the
        # failure-detector service a real cluster membership layer runs.)
        for node in self.nodes:
            node.on_crash(lambda nid=node.node_id: self._on_node_crash(nid))
        #: Every broadcast group created on this cluster, by group id.  Group
        #: 0 is the classic cluster-wide group; the sharding layer adds more.
        self.broadcast_groups: Dict[int, Any] = {}

    def _on_node_crash(self, crashed: int) -> None:
        for endpoint in self.rpc.values():
            endpoint.fail_pending_to(crashed)

    def _build_network(self, network_type: str) -> BaseNetwork:
        if network_type == "ethernet":
            return EthernetNetwork(self.sim, self.cost_model.network)
        if network_type == "switched":
            return SwitchedNetwork(self.sim, self.cost_model.network)
        raise ConfigurationError(f"unknown network type {network_type!r}")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def rpc_for(self, node_id: int) -> RpcEndpoint:
        return self.rpc[node_id]

    @property
    def broadcast_group(self):
        """The cluster-wide totally-ordered broadcast group (created lazily)."""
        if 0 not in self.broadcast_groups:
            self.new_broadcast_group()
        return self.broadcast_groups[0]

    def new_broadcast_group(self, sequencer_node_id: Optional[int] = None, params: Any = None):
        """Create an additional totally-ordered broadcast group.

        Each group gets the next free group id; its wire traffic is
        namespaced by that id, so groups order, recover and elect
        independently.  ``sequencer_node_id`` picks the initial sequencer
        seat (the sharding layer spreads seats round-robin over the nodes).

        Groups can be added while the cluster runs: every node's member
        endpoint joins (and registers the group's wire-kind namespace)
        immediately, so live scale-out of the shard set needs no restart.
        The only requirement is a live machine for the initial seat.
        """
        from .broadcast.group import BroadcastGroup  # deferred import

        seat = self.nodes[0].node_id if sequencer_node_id is None else sequencer_node_id
        if not 0 <= seat < len(self.nodes):
            raise ConfigurationError(f"node {seat} does not exist; cannot host a sequencer seat")
        if not self.nodes[seat].alive:
            raise ConfigurationError(f"node {seat} is crashed and cannot host a new sequencer seat")
        group_id = len(self.broadcast_groups)
        group = BroadcastGroup(self, params=params, group_id=group_id, sequencer_node_id=seat)
        self.broadcast_groups[group_id] = group
        return group

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run(self, **kwargs: Any) -> float:
        """Run the cluster's simulator until its event queue drains."""
        return self.sim.run(**kwargs)

    def shutdown(self) -> None:
        """Kill remaining processes and reclaim their threads."""
        self.sim.shutdown()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def total_interrupts(self) -> int:
        """Sum of receive interrupts over all nodes."""
        return sum(node.nic.stats.interrupts for node in self.nodes)

    def total_overhead_time(self) -> float:
        """Sum of protocol-processing CPU time charged across all nodes."""
        return sum(node.stats.overhead_time for node in self.nodes)

    def counters(self) -> Dict[str, int]:
        """The run's exact totals: simulator events and bytes on the wire."""
        return {"events": self.sim.events_processed, "wire_bytes": self.network.stats.wire_bytes}

    def network_summary(self) -> Dict[str, Any]:
        """A compact dictionary of traffic statistics for reports."""
        stats = self.network.stats
        return {
            "messages": stats.messages_sent,
            "broadcasts": stats.broadcast_messages,
            "unicasts": stats.unicast_messages,
            "packets": stats.packets_sent,
            "payload_bytes": stats.payload_bytes,
            "wire_bytes": stats.wire_bytes,
            "dropped_packets": stats.packets_dropped,
            "interrupts": self.total_interrupts(),
        }
