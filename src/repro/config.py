"""Configuration dataclasses for the simulated cluster and its cost model.

The paper's measurements were taken on 16 MC68030 processors connected by a
10 Mb/s Ethernet running the Amoeba microkernel.  The reproduction replaces
that hardware with a discrete-event simulation whose behaviour is controlled
by the dataclasses in this module.  All times are expressed in **seconds of
virtual time**; all sizes in bytes.

The defaults are calibrated so that the relative cost of computation versus
communication is in the same regime as the paper's testbed: a null RPC of a
few milliseconds, a reliable broadcast of a couple of milliseconds plus
per-receiver interrupt handling, and application "work units" on the order of
tens of microseconds (an MC68030 executed roughly a few million instructions
per second).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .errors import ConfigurationError

#: Maximum payload carried by a single simulated network packet, in bytes.
#: The paper's PB/BB switch-over point is "one packet"; classic Ethernet
#: frames carry at most 1500 bytes of payload.
DEFAULT_PACKET_SIZE = 1500


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of the simulated interconnect.

    Attributes
    ----------
    bandwidth_bps:
        Raw bandwidth of the shared medium in bits per second.  The default is
        the paper's 10 Mb/s Ethernet.
    latency:
        Fixed propagation plus media-access latency per packet (seconds).
    packet_size:
        Maximum payload bytes per packet; larger messages are fragmented.
    packet_overhead_bytes:
        Header bytes added to every packet (consumes bandwidth only).
    supports_broadcast:
        Whether the medium supports hardware (multicast) broadcast.  The
        broadcast RTS requires this; the point-to-point RTS does not.
    loss_rate:
        Probability that an individual packet is dropped in transit.  Used by
        the failure-injection tests; zero by default.
    """

    bandwidth_bps: float = 10_000_000.0
    latency: float = 0.0002
    packet_size: int = DEFAULT_PACKET_SIZE
    packet_overhead_bytes: int = 64
    supports_broadcast: bool = True
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth_bps must be positive")
        if self.latency < 0:
            raise ConfigurationError("latency must be non-negative")
        if self.packet_size <= 0:
            raise ConfigurationError("packet_size must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")

    def transmit_time(self, payload_bytes: int) -> float:
        """Time the medium is occupied transmitting ``payload_bytes`` in one packet."""
        total_bytes = payload_bytes + self.packet_overhead_bytes
        return (total_bytes * 8.0) / self.bandwidth_bps

    def packets_for(self, payload_bytes: int) -> int:
        """Number of packets needed to carry a message of ``payload_bytes``."""
        if payload_bytes <= 0:
            return 1
        return -(-payload_bytes // self.packet_size)


@dataclass(frozen=True)
class CpuParams:
    """Per-node CPU cost parameters.

    Attributes
    ----------
    work_unit_time:
        Virtual time consumed by one application "work unit".  Applications
        account for their computation in abstract work units (e.g. one tour
        extension in TSP, one constraint check in ACP); this factor converts
        them to seconds.
    interrupt_cost:
        CPU time consumed by taking a network interrupt (per received packet).
    protocol_cost:
        CPU time for protocol processing of one message (header parsing,
        buffer management) beyond the raw interrupt.
    operation_dispatch_cost:
        CPU time to marshal/dispatch one shared-object operation locally.
    sequencing_cost:
        CPU *service time* the sequencer spends ordering one message:
        assigning the number, retaining the message in the history buffer,
        flow control.  Unlike the other cost fields this is a queueing
        service time — messages arriving faster than ``1 / sequencing_cost``
        wait in the sequencer's queue — so it bounds a single group's
        ordered-broadcast throughput.  The paper reports exactly this
        sequencer load as the protocol's limit for short messages, and it
        is what multi-group sharding spreads over the cluster.  The default
        of 0 disables the queueing model (sequencing is instantaneous and
        charged at ``operation_dispatch_cost``, the regime the paper-figure
        reproductions are calibrated against); the shard-scaling benchmark
        raises it to study the saturated sequencer.
    context_switch_cost:
        CPU time for a thread context switch inside a node.
    """

    work_unit_time: float = 2.0e-5
    interrupt_cost: float = 1.0e-4
    protocol_cost: float = 3.0e-4
    operation_dispatch_cost: float = 5.0e-5
    sequencing_cost: float = 0.0
    context_switch_cost: float = 5.0e-5

    def __post_init__(self) -> None:
        for name in (
            "work_unit_time",
            "interrupt_cost",
            "protocol_cost",
            "operation_dispatch_cost",
            "sequencing_cost",
            "context_switch_cost",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


@dataclass(frozen=True)
class BroadcastParams:
    """Parameters of the sequencer-based totally-ordered broadcast protocols."""

    #: Messages at most this many packets long use PB; longer ones use BB.
    pb_max_packets: int = 1
    #: Size of the sequencer's history buffer (messages retained for
    #: retransmission requests).
    history_size: int = 1024
    #: Virtual-time interval between sequencer liveness checks (election).
    election_timeout: float = 0.05
    #: Fixed protocol selection: "auto" (paper behaviour), "pb", or "bb".
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.pb_max_packets < 1:
            raise ConfigurationError("pb_max_packets must be >= 1")
        if self.history_size < 1:
            raise ConfigurationError("history_size must be >= 1")
        if self.method not in ("auto", "pb", "bb"):
            raise ConfigurationError("method must be one of 'auto', 'pb', 'bb'")


@dataclass(frozen=True)
class ReplicationParams:
    """Dynamic-replication policy parameters for the point-to-point RTS.

    A machine acquires a local copy of an object when its observed
    read/write ratio exceeds ``replicate_threshold`` (with at least
    ``min_accesses`` accesses observed); it drops the copy again when the
    ratio falls below ``drop_threshold``.  Using two thresholds gives the
    hysteresis the paper describes.
    """

    replicate_threshold: float = 4.0
    drop_threshold: float = 1.0
    min_accesses: int = 8
    #: Exponential decay applied to the statistics window after each decision,
    #: so that the policy adapts to phase changes in the access pattern.
    decay: float = 0.5

    def __post_init__(self) -> None:
        if self.replicate_threshold <= self.drop_threshold:
            raise ConfigurationError(
                "replicate_threshold must be greater than drop_threshold"
            )
        if self.min_accesses < 1:
            raise ConfigurationError("min_accesses must be >= 1")
        if not 0.0 <= self.decay <= 1.0:
            raise ConfigurationError("decay must be in [0, 1]")


@dataclass(frozen=True)
class CostModel:
    """Complete cost model of the simulated cluster."""

    network: NetworkParams = field(default_factory=NetworkParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    broadcast: BroadcastParams = field(default_factory=BroadcastParams)
    replication: ReplicationParams = field(default_factory=ReplicationParams)

    def with_overrides(self, **sections: Any) -> "CostModel":
        """Return a copy with per-section overrides applied.

        Each keyword names a section (``network``, ``cpu``, ``broadcast``,
        ``replication``) and maps either to a dict of field overrides or to a
        complete replacement params object::

            model.with_overrides(network={"bandwidth_bps": 1e8},
                                 replication=ReplicationParams(min_accesses=2))
        """
        updated: dict[str, Any] = {}
        for section, overrides in sections.items():
            if not hasattr(self, section):
                raise ConfigurationError(f"unknown cost-model section: {section!r}")
            current = getattr(self, section)
            if isinstance(overrides, type(current)):
                updated[section] = overrides
            else:
                updated[section] = replace(current, **dict(overrides))
        return replace(self, **updated)


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of a simulated cluster run.

    Attributes
    ----------
    num_nodes:
        Number of processor-pool machines (the paper used up to 16).
    cost_model:
        Cost model shared by all nodes and the interconnect.
    seed:
        Master seed for all pseudo-random streams used by the simulation.
    """

    num_nodes: int = 4
    cost_model: CostModel = field(default_factory=CostModel)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")

    def with_nodes(self, num_nodes: int) -> "ClusterConfig":
        """Return a copy of this configuration with a different node count."""
        return replace(self, num_nodes=num_nodes)

    def with_seed(self, seed: int) -> "ClusterConfig":
        """Return a copy of this configuration with a different master seed."""
        return replace(self, seed=seed)


DEFAULT_COST_MODEL = CostModel()
