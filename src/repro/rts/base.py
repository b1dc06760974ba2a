"""Common interface shared by the runtime systems.

Application code (and the Orca layer on top) manipulates shared objects
through :class:`ObjectHandle` references and a :class:`RuntimeSystem`
implementation.  Handles are location transparent: the same handle works on
every machine, and the runtime decides whether an invocation is a local read,
a broadcast update, or an RPC to a primary copy.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type

from ..errors import RtsError
from .manager import ObjectManager
from .object_model import ObjectSpec, OperationDef, validate_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..sim.process import SimProcess

_OFF_NODE = ("shared-object operations must be invoked from a process created "
             "on a cluster node (kernel.spawn_thread or OrcaProcess.fork)")


@dataclass(frozen=True)
class ObjectHandle:
    """A location-transparent reference to one shared object."""

    obj_id: int
    name: str
    spec_class: Type[ObjectSpec]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ObjectHandle {self.name!r} #{self.obj_id} ({self.spec_class.__name__})>"


class CallSite:
    """What one (node, object, operation) resolves to, once, on first use.

    Every field is fixed for the life of the runtime.  What can change under
    a call site - the object's policy, whether the node holds a valid
    replica - is not here and is checked on every call.
    """

    __slots__ = ("node", "manager", "op", "kind", "apply_cost", "access")

    def __init__(self, node: "Node", manager: ObjectManager, op: OperationDef,
                 apply_cost: float, access: Any) -> None:
        self.node = node
        self.manager = manager
        self.op = op
        #: The latency class the invocation is recorded under.
        self.kind = "write" if op.is_write else "read"
        #: CPU a machine is charged for applying the operation to its replica.
        self.apply_cost = apply_cost
        #: The runtime's (object, node) access counters, if it keeps any.
        self.access = access


@dataclass
class RtsStats:
    """Aggregate invocation statistics for one runtime system."""

    objects_created: int = 0
    local_reads: int = 0
    remote_reads: int = 0
    local_writes: int = 0
    broadcast_writes: int = 0
    #: Ordered broadcasts that carried a write batch (so
    #: ``broadcast_writes / batches_sent`` is the overall batching factor).
    batches_sent: int = 0
    #: Ready batches held back because the shard sequencer's queue exceeded
    #: the flow-control threshold (see BatchingParams.backpressure_depth).
    flow_control_holds: int = 0
    rpc_writes: int = 0
    guard_retries: int = 0
    replicas_created: int = 0
    replicas_dropped: int = 0
    invalidations_sent: int = 0
    updates_sent: int = 0
    #: Policy switches performed by the unified runtime (total and per
    #: direction; protocol-only flips count toward the total only).
    migrations: int = 0
    migrations_to_primary: int = 0
    migrations_to_broadcast: int = 0
    #: Cross-group moves (drain-and-switch), live group additions, and
    #: primary-seat relocations performed by the rebalancing layer.
    shard_moves: int = 0
    shards_added: int = 0
    primary_relocations: int = 0
    #: Primary takeovers after a primary-node crash, and client write
    #: re-issues that the applied-write-id table recognised as duplicates.
    primary_recoveries: int = 0
    deduplicated_writes: int = 0
    #: Elasticity-loop events: completed rejoin catch-ups of recovered
    #: nodes, planned node drains, broadcast groups merged away, and
    #: primary seats handed back to a rejoined heaviest writer.
    node_rejoins: int = 0
    nodes_drained: int = 0
    shards_removed: int = 0
    seats_handed_back: int = 0
    #: Transaction-layer events: committed groups (by path), transactions
    #: surfaced to the caller as aborted, internal attempt retries after a
    #: guard rejection, ordinary writes deferred behind a prepared or
    #: barrier lock, and coordinator-crash recovery passes.
    txn_commits: int = 0
    txn_aborts: int = 0
    txn_retries: int = 0
    txn_same_shard_commits: int = 0
    txn_cross_shard_commits: int = 0
    txn_deferred_writes: int = 0
    txn_recoveries: int = 0
    per_object_reads: Dict[int, int] = field(default_factory=dict)
    per_object_writes: Dict[int, int] = field(default_factory=dict)

    def note_read(self, obj_id: int, local: bool) -> None:
        if local:
            self.local_reads += 1
        else:
            self.remote_reads += 1
        self.per_object_reads[obj_id] = self.per_object_reads.get(obj_id, 0) + 1

    def note_write(self, obj_id: int) -> None:
        self.per_object_writes[obj_id] = self.per_object_writes.get(obj_id, 0) + 1


class RuntimeSystem(ABC):
    """Abstract base of the broadcast and point-to-point runtime systems."""

    #: Human-readable name used in reports.
    name = "abstract-rts"

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.cost_model = cluster.cost_model
        self.stats = RtsStats()
        #: Anything with ``record(kind, seconds)``, e.g. a
        #: :class:`repro.metrics.latency.LatencyRecorder` (duck-typed: rts
        #: does not import metrics); ``None`` times nothing.
        self.latency_recorder: Optional[Any] = None
        #: Gateway/session tier, attached lazily by gateway-mode workload
        #: runs (see :mod:`repro.gateway`); ``None`` keeps reports and
        #: fingerprints byte-identical to pre-gateway runs.
        self.gateway_tier: Optional[Any] = None
        self._object_ids = itertools.count(1)
        self._handles: Dict[int, ObjectHandle] = {}
        #: One object manager per machine.
        self.managers: Dict[int, ObjectManager] = {
            node.node_id: ObjectManager(node) for node in cluster.nodes
        }
        #: (node_id, obj_id, op_name) -> its :class:`CallSite`.
        self._sites: Dict[Tuple[int, int, str], CallSite] = {}

    # ------------------------------------------------------------------ #
    # Object creation / lookup
    # ------------------------------------------------------------------ #

    def _new_handle(self, spec_class: Type[ObjectSpec], name: Optional[str]) -> ObjectHandle:
        validate_spec(spec_class)
        obj_id = next(self._object_ids)
        handle = ObjectHandle(obj_id=obj_id,
                              name=name or f"{spec_class.__name__}#{obj_id}",
                              spec_class=spec_class)
        self._handles[obj_id] = handle
        self.stats.objects_created += 1
        return handle

    def handle(self, obj_id: int) -> ObjectHandle:
        try:
            return self._handles[obj_id]
        except KeyError:
            raise RtsError(f"unknown object id {obj_id}") from None

    def handles(self) -> List[ObjectHandle]:
        return list(self._handles.values())

    def manager(self, node_id: int) -> ObjectManager:
        return self.managers[node_id]

    # ------------------------------------------------------------------ #
    # Abstract operations
    # ------------------------------------------------------------------ #

    @abstractmethod
    def create_object(self, proc: "SimProcess", spec_class: Type[ObjectSpec],
                      args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None,
                      name: Optional[str] = None,
                      policy: Any = None) -> ObjectHandle:
        """Create a shared object from the given process; returns its handle.

        ``policy`` names the management policy for the object (see
        :mod:`repro.rts.policy`); runtimes that manage every object one way
        accept and ignore it, so scenarios can pass policies uniformly.
        """

    @abstractmethod
    def _invoke(self, proc: "SimProcess", site: CallSite, handle: ObjectHandle,
                args: Tuple[Any, ...], kwargs: Optional[Dict[str, Any]]) -> Any:
        """Runtime-specific invocation of ``site.op`` from ``site.node``."""

    def invoke(self, proc: "SimProcess", handle: ObjectHandle, op_name: str,
               args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None) -> Any:
        """Invoke an operation on a shared object from the given process.

        While a latency recorder is attached, the invocation's virtual-time
        latency (including any blocking on broadcasts, RPCs or guards) is
        recorded under ``"read"`` or ``"write"`` according to the
        operation's declared class.
        """
        node = proc.node
        if node is None:
            raise RtsError(_OFF_NODE)
        site = (self._sites.get((node.node_id, handle.obj_id, op_name))
                or self._site(node.node_id, handle.obj_id, op_name))
        recorder = self.latency_recorder
        if recorder is None:
            return self._invoke(proc, site, handle, args, kwargs)
        start = proc.local_time
        result = self._invoke(proc, site, handle, args, kwargs)
        recorder.record(site.kind, proc.local_time - start)
        return result

    def _site(self, node_id: int, obj_id: int, op_name: str) -> CallSite:
        """The call site's record, resolved on first use."""
        key = (node_id, obj_id, op_name)
        site = self._sites.get(key)
        if site is None:
            op = self.handle(obj_id).spec_class.operation_def(op_name)
            cpu = self.cost_model.cpu
            site = self._sites[key] = CallSite(
                self.cluster.node(node_id), self.managers[node_id], op,
                cpu.operation_dispatch_cost + op.work_units * cpu.work_unit_time,
                self._access_stats(obj_id, node_id))
        return site

    def _access_stats(self, obj_id: int, node_id: int) -> Any:
        """The (object, node) access counters a call site bumps; none here."""
        return None

    def attach_latency_recorder(self, recorder: Any) -> Any:
        """Time every subsequent invocation into ``recorder`` (``None``: stop)."""
        self.latency_recorder = recorder
        return recorder

    def downstream_queue_depth(self) -> int:
        """Instantaneous depth of the runtime's deepest service queue.

        This is the congestion signal the gateway tier sheds on: the same
        per-shard sequencer depth that arms the write batcher's
        backpressure, surfaced for admission-time decisions at the client
        edge.  Runtimes without an internal service queue report 0 (never
        congested), so gateways degrade to quota/queue-bound admission
        only.
        """
        return 0

    # ------------------------------------------------------------------ #
    # Helpers shared by implementations
    # ------------------------------------------------------------------ #

    @staticmethod
    def _node_of(proc: "SimProcess") -> "Node":
        node = proc.node
        if node is None:
            raise RtsError(_OFF_NODE)
        return node

    #: Default policy label reported for objects of single-policy runtimes.
    object_policy_name = "fixed"

    def policy_of(self, handle: ObjectHandle) -> str:
        """Name of the management policy governing ``handle``.

        Single-policy runtimes report their class-level label; the unified
        runtime overrides this with the object's current policy.
        """
        return self.object_policy_name

    def object_summary(self) -> Dict[str, Dict[str, Any]]:
        """Reconciled per-object digest: reads, writes and policy by object.

        This is the single source the shard- and runtime-level counters must
        agree with: reads/writes come from the same per-object dicts that
        feed :attr:`RtsStats`, keyed by the stable object name, with the
        object's management policy alongside.
        """
        summary: Dict[str, Dict[str, Any]] = {}
        for handle in sorted(self.handles(), key=lambda h: h.obj_id):
            summary[handle.name] = {
                "obj_id": handle.obj_id,
                "reads": self.stats.per_object_reads.get(handle.obj_id, 0),
                "writes": self.stats.per_object_writes.get(handle.obj_id, 0),
                "policy": self.policy_of(handle),
            }
        return summary

    def read_write_summary(self) -> Dict[str, Any]:
        """Compact summary used by benchmark reports."""
        summary = {
            "rts": self.name,
            "objects": self.stats.objects_created,
            "local_reads": self.stats.local_reads,
            "remote_reads": self.stats.remote_reads,
            "broadcast_writes": self.stats.broadcast_writes,
            "rpc_writes": self.stats.rpc_writes,
            "guard_retries": self.stats.guard_retries,
            "per_object": self.object_summary(),
        }
        if self.stats.batches_sent:
            summary["batches_sent"] = self.stats.batches_sent
        if self.gateway_tier is not None:
            summary["gateway"] = self.gateway_tier.summary()
        return summary
