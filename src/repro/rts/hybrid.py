"""The unified runtime system: per-object management policies, live migration.

:class:`HybridRts` hosts both of the paper's object-management mechanisms in
one runtime.  Every shared object runs under a
:class:`~repro.rts.policy.ManagementPolicy` chosen at creation time
(``create_object(..., policy=...)``) and changeable while the cluster runs:

* **broadcast** objects are replicated on every machine; reads are local and
  writes ride the totally-ordered broadcast of the object's shard, sharded
  and optionally batched;
* **primary-copy** objects live on one machine with dynamically replicated
  secondaries; writes go through the primary and propagate by invalidation
  or two-phase update;
* **adaptive** objects carry an :class:`~repro.rts.policy.AdaptivePolicy`
  controller that watches the object's read/write ratio and migrates it
  between the fixed policies at run time.

Changing an object's policy, primary seat or shard while the cluster runs
(``migrate``, ``relocate_primary``, ``move_shard``, crash takeover) is one
mechanism — an ordered, epoch-stamped switch record — implemented in
:mod:`repro.rts.switch`; this module decides *what* switches (who becomes
primary, which shard, when the controllers act) and keeps the invocation
paths, the exactly-once bookkeeping, rejoin/drain/scale-in and reporting.
The same switch powers live scale-out: ``add_shard`` joins a fresh broadcast
group and the rebalancing controller moves hot objects onto it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Type

from ..amoeba.broadcast.protocol import CONTROL_MESSAGE_SIZE, DeliveredMessage
from ..amoeba.message import estimate_size
from ..amoeba.rpc import RpcReply, RpcRequest
from ..errors import ConfigurationError, RpcPeerDeadError, RtsError
from .base import CallSite, ObjectHandle, RuntimeSystem
from .consistency import HistoryRecorder
from .object_model import RETRY, ObjectSpec
from .p2p.directory import ObjectDirectory
from .p2p.invalidation import KIND_INVALIDATE, InvalidationProtocol
from .p2p.replication_policy import ReplicationPolicy
from .p2p.update import KIND_UNLOCK, KIND_UPDATE, TwoPhaseUpdateProtocol
from .policy import (
    FIXED_POLICIES,
    MECHANISM_BROADCAST,
    MECHANISM_PRIMARY,
    AdaptivePolicy,
    BroadcastReplicated,
    management_policy,
)
from .sharding import (
    BatchingParams,
    RebalancePlanner,
    ShardRouter,
    batching_params,
    rebalance_params,
)
from .stats import AccessStats
from .switch import (
    CURRENT,
    FUTURE,
    KIND_SWITCH,
    LEG_ARRIVE,
    LEG_DRAIN,
    MIGRATED,
    PORT_MIGRATE,
    STALE,
    SwitchEngine,
    SwitchRecord,
    _PendingWrite,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..sim.process import SimProcess

#: Point-to-point protocol message kinds (unchanged from the classic p2p RTS).
KIND_ACK = "p2p.ack"
KIND_DROP = "p2p.drop"

#: Out-of-band rejoin traffic: a donor unicasts a recovered member the state
#: covering everything ordered before its rejoin anchor, and the member can
#: re-request the seed if the chosen donor died before sending it.
KIND_SEED = "rts.seed"
KIND_SEED_REQ = "rts.seed_req"

PORT_READ = "orca.obj.read"
PORT_WRITE = "orca.obj.write"
PORT_FETCH = "orca.obj.fetch"

#: On-wire retry markers carried in RPC replies (strings, like the classic
#: ``"__retry__"``, so they survive the payload plumbing untouched).
MARKER_RETRY = "__retry__"
MARKER_MIGRATED = "__migrated__"
MARKER_MIGRATING = "__migrating__"


@dataclass
class _Transaction:
    """Fan-out bookkeeping: one primary write waiting for acknowledgements."""

    remaining: int
    proc: Optional["SimProcess"] = None
    #: Nodes still owing an acknowledgement; a node crash releases its debt
    #: (a dead machine will never answer, and its copy is gone with it).
    destinations: Set[int] = None  # type: ignore[assignment]


class _ShardMember:
    """One machine's end of one shard's total order: its bound
    :meth:`on_deliver` is that group member's delivery handler, so a record
    arrives with the machine's manager and node already resolved."""

    __slots__ = ("rts", "node_id", "key", "node", "manager")

    def __init__(self, rts: "HybridRts", node: "Node", shard: int) -> None:
        self.rts = rts
        self.node_id = node.node_id
        self.key = (node.node_id, shard)
        self.node = node
        self.manager = rts.managers[node.node_id]

    def on_deliver(self, record: DeliveredMessage) -> None:
        """Runs at every member, in per-shard total order."""
        rts = self.rts
        payload = record.payload
        kind = payload[0]
        if (rts._awaiting_seed and self.key in rts._awaiting_seed
                and not (kind == "rejoin" and payload[1] == self.node_id)):
            # This member re-entered the order at its rejoin anchor but the
            # out-of-band seed (the state covering everything before the
            # anchor) has not arrived yet; buffer post-anchor deliveries
            # for ordered replay on top of the seeded state.  Only the
            # member's own anchor passes through (it wakes the rejoin
            # thread and carries no state).
            rts._seed_buffer.setdefault(self.key, []).append(record)
            return
        try:
            apply = rts._deliver_kinds[kind]
        except (KeyError, TypeError):
            raise RtsError(
                f"unknown broadcast RTS payload kind {kind!r}") from None
        apply(self, record)


@dataclass
class MigrationRecord:
    """One completed (or in-flight) policy switch, for reports and tests."""

    obj_id: int
    name: str
    target: str
    epoch: int
    primary_node: Optional[int]


@dataclass
class ShardMoveRecord:
    """One cross-group move of an object (drain-and-switch), for reports."""

    obj_id: int
    name: str
    src: int
    dst: int
    epoch: int


@dataclass
class RecoveryRecord:
    """One primary takeover after a primary-node crash, for reports/tests.

    ``from_snapshot`` is true when no surviving secondary held a valid copy
    and the takeover fell back to the last committed state record (the
    primary-invalidate worst case); ``completed_at - crashed_at`` is the
    object's write-unavailability window in virtual seconds.
    """

    obj_id: int
    name: str
    old_primary: int
    new_primary: int
    epoch: int
    from_snapshot: bool
    crashed_at: float
    completed_at: Optional[float] = None

    @property
    def window(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.crashed_at


@dataclass
class RejoinRecord:
    """One recovered node's catch-up back to full membership.

    ``completed_at - recovered_at`` is the window during which the member
    was alive but not yet a full member (reads served stale or not at all,
    gap requests skipped it); ``objects_reseeded`` counts the replica
    copies the rejoin seeds restored.
    """

    node_id: int
    recovered_at: float
    completed_at: Optional[float] = None
    objects_reseeded: int = 0
    seats_handed_back: int = 0

    @property
    def window(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.recovered_at


@dataclass
class DrainRecord:
    """One planned node departure: every seat evacuated, then the exit."""

    node_id: int
    started_at: float
    primary_seats_moved: int = 0
    sequencer_seats_moved: int = 0
    completed_at: Optional[float] = None


class _WriteBatcher:
    """Per-(node, shard) write combining onto the ordered broadcast.

    Writes enqueue here instead of broadcasting individually.  A batch is
    flushed when it reaches ``max_batch`` operations, when ``flush_delay``
    expires, or — with a zero delay — immediately while no batch is in
    flight.  Only one batch per (node, shard) is outstanding at a time:
    writes arriving while it is on the wire coalesce into the next batch,
    which both preserves per-node FIFO order and yields the group-commit
    effect that amortises the sequencer round trip under contention.

    With ``backpressure_depth`` set, the batcher also implements batch-aware
    flow control: while the shard sequencer's service queue is at least that
    deep, a ready batch is *held* (and keeps coalescing) instead of adding
    to the overload, so the sender backs off before its unanswered sends
    could escalate into retries and a spurious election.  The hold is
    re-evaluated after roughly the time the queue needs to drain back under
    the threshold, and a batch that has grown to ``4 * max_batch`` entries
    flushes unconditionally, bounding the held writes' latency.  (In the
    simulator the sender reads the queue depth directly; a real cluster
    would piggyback it on the sequencer's ordered broadcasts.)
    """

    def __init__(self, rts: "HybridRts", node: "Node",
                 group: "BroadcastGroup", shard: int,
                 params: BatchingParams) -> None:
        self.rts = rts
        self.node = node
        self.group = group
        self.shard = shard
        self.params = params
        self._entries: List[Tuple[Any, ...]] = []
        self._bytes = 0
        self._in_flight = False
        self._timer: Optional[int] = None
        self._backoff_timer: Optional[int] = None
        self.holds = 0

    def enqueue(self, entry: Tuple[Any, ...], size: int) -> None:
        self._entries.append(entry)
        self._bytes += size
        self._maybe_flush()

    def on_batch_delivered(self) -> None:
        self._in_flight = False
        self._maybe_flush()

    def _backpressured(self) -> bool:
        """Should a ready batch be held back for the loaded sequencer?"""
        depth = self.params.backpressure_depth
        if depth is None:
            return False
        if len(self._entries) >= 4 * self.params.max_batch:
            return False  # hard cap: flush regardless of load
        return self.group.sequencer.queue_depth >= depth

    def _hold(self) -> None:
        """Re-check once the sequencer had time to work the queue down."""
        if self._backoff_timer is not None:
            return
        self.holds += 1
        self.rts.stats.flow_control_holds += 1
        service = self.node.cost_model.cpu.sequencing_cost
        delay = max(self.params.flush_delay,
                    service * self.params.backpressure_depth)
        self._backoff_timer = self.node.kernel.set_timer(
            delay, self._on_backoff)

    def _on_backoff(self) -> None:
        self._backoff_timer = None
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._in_flight or not self._entries:
            return
        if (len(self._entries) >= self.params.max_batch
                or self.params.flush_delay <= 0.0):
            if self._backpressured():
                self._hold()
                return
            self._flush()
        elif self._timer is None:
            self._timer = self.node.kernel.set_timer(
                self.params.flush_delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if self._in_flight or not self._entries:
            return
        if self._backpressured():
            self._hold()
            return
        self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self.node.kernel.cancel_timer(self._timer)
            self._timer = None
        entries, self._entries = self._entries, []
        size, self._bytes = self._bytes, 0
        self._in_flight = True
        self.rts.stats.batches_sent += 1
        self.rts.router.shard_stats[self.shard].note_batch(len(entries))
        self.group.member(self.node.node_id).broadcast(
            ("batch", entries), size=max(16, size) + 8)


class HybridRts(RuntimeSystem):
    """Shared objects under per-object, runtime-switchable management."""

    name = "hybrid-rts"

    def __init__(self, cluster: "Cluster", default_policy: Any = "broadcast",
                 protocol: str = "update", dynamic_replication: bool = True,
                 replicate_everywhere: bool = False,
                 record_history: bool = False, num_shards: int = 1,
                 placement: Any = None, batching: Any = None,
                 rebalance: Any = None) -> None:
        """Create the unified runtime.

        Parameters
        ----------
        cluster:
            The simulated cluster.  Broadcast-managed objects (and
            migrations) need a broadcast-capable network; a purely
            primary-copy configuration runs on any network.
        default_policy:
            Policy for objects created without an explicit ``policy=``:
            a name (``"broadcast"``, ``"primary-invalidate"``,
            ``"primary-update"``, ``"primary"``, ``"adaptive"``), adaptive
            params, or a :class:`ManagementPolicy`.
        protocol:
            Which coherence protocol ``default_policy="primary"`` resolves
            to (``"update"`` or ``"invalidation"``).
        dynamic_replication:
            Enable the read/write-ratio driven secondary-copy policy for
            primary-managed objects.
        replicate_everywhere:
            Eagerly give every machine a secondary copy when a
            primary-managed object is created.
        record_history:
            Record write/read histories for the consistency checker.
        num_shards / placement / batching:
            Sharding and write batching of the broadcast mechanism (see
            :mod:`repro.rts.sharding`).
        rebalance:
            Configuration of the background shard-rebalancing controller
            (``True``, a dict of :class:`~repro.rts.sharding.RebalanceParams`
            fields, or params).  The controller samples per-shard write
            loads every ``interval`` virtual seconds, moves hot objects off
            the hottest broadcast group with :meth:`move_shard`, and — when
            ``grow_to`` is set — adds groups to the live cluster first.
        """
        super().__init__(cluster)
        if protocol not in ("update", "invalidation"):
            raise ConfigurationError(
                f"unknown coherence protocol {protocol!r} (use 'update' or "
                "'invalidation')")
        if default_policy == "primary":
            default_policy = f"primary-{'invalidate' if protocol == 'invalidation' else 'update'}"
        self.default_policy = management_policy(default_policy,
                                                default=BroadcastReplicated())
        self.dynamic_replication = dynamic_replication
        self.replicate_everywhere = replicate_everywhere
        self.history = HistoryRecorder(enabled=record_history)

        # -- broadcast mechanism ---------------------------------------- #
        self._num_shards = num_shards
        self._placement = placement
        self.batching = batching_params(batching)
        self.rebalance = rebalance_params(rebalance)
        self._rebalancer_active = False
        self.router: Optional[ShardRouter] = None
        #: Shard-0 group under the classic attribute name (set with the router).
        self.group: Optional["BroadcastGroup"] = None
        self._batchers: Dict[Tuple[int, int], _WriteBatcher] = {}
        #: (node_id, shard) -> that member's end of the shard's order.
        self._shard_members: Dict[Tuple[int, int], _ShardMember] = {}
        #: Every switch's state: epochs, object lifecycles, member cursors.
        self.switch = SwitchEngine(self)
        #: Payload kind -> what a member does on delivering it.  The
        #: transaction layer's kinds join when the layer is built.
        self._deliver_kinds: Dict[str, Callable[..., None]] = {
            "op": self._deliver_op,
            "batch": self._deliver_batch,
            "create": self._deliver_create,
            "rejoin": self._apply_rejoin,
            KIND_SWITCH: self.switch.apply,
        }
        self._invocation_ids = itertools.count(1)
        self._pending: Dict[int, _PendingWrite] = {}
        #: (node_id, obj_id) -> [SimProcess, ...] waiting for a local replica.
        self._replica_waiters: Dict[Tuple[int, int], List["SimProcess"]] = {}

        # -- primary-copy mechanism ------------------------------------- #
        self.directory = ObjectDirectory()
        self.replication = ReplicationPolicy(self.cost_model.replication)
        self.protocols = {
            "invalidation": InvalidationProtocol(self),
            "update": TwoPhaseUpdateProtocol(self),
        }
        #: Default protocol instance (what ``"primary"`` resolves to).
        self.protocol = self.protocols[protocol]
        #: Coherence message kind -> its secondary-side handler.
        self._coherence = {
            KIND_INVALIDATE: self.protocols["invalidation"].handle_invalidate,
            KIND_UPDATE: self.protocols["update"].handle_update,
            KIND_UNLOCK: self.protocols["update"].handle_unlock,
        }
        self._txn_ids = itertools.count(1)
        self._transactions: Dict[int, _Transaction] = {}
        #: txn_id -> node that must receive the acknowledgements.
        self._ack_destinations: Dict[int, int] = {}
        self._services_installed = False

        # -- per-object policy state ------------------------------------ #
        #: obj_id -> name of the fixed policy currently managing the object.
        self._policy_by_obj: Dict[int, str] = {}
        #: obj_id -> adaptive controller (objects created adaptive only).
        self._adaptive_by_obj: Dict[int, AdaptivePolicy] = {}
        #: obj_id -> cluster-wide access window driving adaptive decisions.
        self._obj_access: Dict[int, AccessStats] = {}
        self._created_on: Dict[int, int] = {}

        # -- migration state -------------------------------------------- #
        #: (primary, obj_id) -> count of primary-write commits in flight
        #: there (what a freeze drains to zero before it snapshots).
        self._inflight_writes: Dict[Tuple[int, int], int] = {}
        #: Objects whose adaptive migration thread is spawned but not done.
        self._migration_pending: Set[int] = set()
        self.migrations: List[MigrationRecord] = []
        self.shard_moves: List[ShardMoveRecord] = []
        #: (obj_id, old_primary, new_primary) per completed seat relocation.
        self.relocations: List[Tuple[int, int, int]] = []

        # -- primary-failure recovery ------------------------------------ #
        #: Cluster-unique write-invocation ids for the primary-copy path.
        self._write_ids = itertools.count(1)
        #: (node_id, obj_id) -> {origin: (seq, result)} of the latest write
        #: each client process got applied there.  The dedup table that
        #: makes a client's re-issue after a primary crash idempotent; it
        #: travels with every copy (fetches, update fan-outs, relocation
        #: and takeover switches).  Each client has at most one write
        #: outstanding, so retaining only its newest id bounds the table
        #: at O(clients) however long the run.
        self._applied: Dict[Tuple[int, int], Dict[str, Tuple[int, Any]]] = {}
        #: obj_id -> (state, version, dedup table) as of the last committed
        #: primary write — the commit record a takeover falls back to when
        #: the only valid copy died with its machine (primary-invalidate
        #: objects after any write).
        self._last_committed: Dict[int, Tuple[Any, int, Dict]] = {}
        #: obj_id -> node coordinating an in-flight takeover (so a second
        #: crash can restart recovery if the coordinator died too).
        self._recovering: Dict[int, int] = {}
        self.recoveries: List[RecoveryRecord] = []
        #: obj_id -> virtual time of its last cross-group move (the
        #: rebalance controller's per-object churn cooldown).
        self._last_moved_at: Dict[int, float] = {}

        # -- elasticity: rejoin, drain, scale-in -------------------------- #
        #: Nodes whose rejoin catch-up has not completed: they must not be
        #: targeted by seat moves or act as seed donors, and cluster-wide
        #: reconfiguration (migrations, shard moves) pauses while this is
        #: non-empty, so a seed is never computed against routes that shift
        #: under it.
        self._catching_up: Set[int] = set()
        #: Nodes being drained out of the cluster (drain_node in progress).
        self._draining: Set[int] = set()
        #: Per-node rejoin incarnation counter: a crash during catch-up
        #: abandons the old rejoin thread and invalidates its seeds.
        self._rejoin_epoch: Dict[int, int] = {}
        #: (node_id, shard) pairs whose out-of-band seed has not arrived.
        self._awaiting_seed: Set[Tuple[int, int]] = set()
        #: Deliveries a rejoining member received between its anchor and
        #: its seed, replayed in order once the seed installs.
        self._seed_buffer: Dict[Tuple[int, int], List[DeliveredMessage]] = {}
        self._recovery_wired = False
        self.rejoins: List[RejoinRecord] = []
        self.drains: List[DrainRecord] = []
        #: Broadcast groups retired by remove_shard, in retirement order.
        self.removed_shards: List[int] = []

        # -- cross-object transactions ------------------------------------ #
        #: Lazily created transaction layer (first transact() call builds
        #: it); while None, every hook below is skipped and the runtime
        #: behaves byte-identically to one without the layer.
        self._txn_layer: Optional[Any] = None

        initial = self.default_policy
        needs_broadcast = (isinstance(initial, AdaptivePolicy)
                           or initial.mechanism == MECHANISM_BROADCAST)
        if needs_broadcast:
            self._ensure_router()
        else:
            self._ensure_primary_services()
        if type(self) is HybridRts:
            self.name = {
                MECHANISM_BROADCAST: "broadcast-rts",
                MECHANISM_PRIMARY: "p2p-rts",
            }.get(initial.mechanism, "adaptive-rts"
                  if isinstance(initial, AdaptivePolicy) else "hybrid-rts")

    # ------------------------------------------------------------------ #
    # Lazy wiring of the two mechanisms
    # ------------------------------------------------------------------ #

    def _ensure_router(self) -> ShardRouter:
        """Build the broadcast groups on first need (they require hardware
        broadcast, which a primary-copy-only configuration does not)."""
        if self.router is None:
            if not self.cluster.network.supports_broadcast:
                raise RtsError(
                    "broadcast-managed objects (and policy migrations) need "
                    "a broadcast-capable network; this cluster is "
                    f"{self.cluster.network.name!r}")
            self.router = ShardRouter(self.cluster, num_shards=self._num_shards,
                                      placement=self._placement)
            self.group = self.router.group_for(0)
            for shard in range(self.router.num_shards):
                self._wire_shard(shard)
            self._wire_recovery()
        return self.router

    def _wire_shard(self, shard: int) -> None:
        """Install every member's delivery handler for one shard's group."""
        group = self.router.group_for(shard)
        for node in self.cluster.nodes:
            member = _ShardMember(self, node, shard)
            self._shard_members[member.key] = member
            group.set_delivery_handler(node.node_id, member.on_deliver)

    def add_shard(self, sequencer_node_id: Optional[int] = None) -> int:
        """Add a broadcast group to the running cluster; returns its shard.

        The group's members join and its wire-kind namespace registers
        immediately (see :meth:`ShardRouter.add_shard` for seat selection),
        so the new total order can carry traffic — and receive rebalanced
        objects — without disturbing the existing groups.
        """
        router = self._ensure_router()
        shard = router.add_shard(sequencer_node_id=sequencer_node_id)
        self._wire_shard(shard)
        self.stats.shards_added += 1
        return shard

    def _ensure_primary_services(self) -> None:
        """Register the point-to-point handlers and RPC services once."""
        if self._services_installed:
            return
        self._services_installed = True
        for node in self.cluster.nodes:
            nid = node.node_id
            node.on_crash(lambda n=nid: self._on_node_crash(n))
            for kind in self._coherence:
                node.register_handler(
                    kind, lambda m, n=nid, k=kind: self._on_coherence(n, k, m.payload))
            node.register_handler(KIND_ACK,
                                  lambda m, n=nid: self._on_ack(n, m.payload))
            node.register_handler(KIND_DROP,
                                  lambda m, n=nid: self._on_drop(n, m.payload))
            rpc = self.cluster.rpc_for(nid)
            rpc.register_service(PORT_READ,
                                 lambda req, n=nid: self._serve_read(n, req))
            rpc.register_service(PORT_WRITE,
                                 lambda req, n=nid: self._serve_write(n, req),
                                 may_block=True)
            rpc.register_service(PORT_FETCH,
                                 lambda req, n=nid: self._serve_fetch(n, req),
                                 may_block=True)
            rpc.register_service(
                PORT_MIGRATE, lambda req, n=nid: self.switch.freeze_and_snapshot(
                    self.sim.current_process, n, req.payload["obj_id"]),
                may_block=True)
        self._wire_recovery()

    def _wire_recovery(self) -> None:
        """Register the rejoin listeners and seed handlers once per cluster."""
        if self._recovery_wired:
            return
        self._recovery_wired = True
        for node in self.cluster.nodes:
            nid = node.node_id
            node.on_recover(lambda n=nid: self._on_node_recover(n))
            node.on_crash(lambda n=nid: self._abort_rejoin(n))
            node.on_crash(lambda n=nid: self.switch.node_crashed(n))
            node.register_handler(
                KIND_SEED, lambda m, n=nid: self._on_seed(n, m.payload))
            node.register_handler(
                KIND_SEED_REQ,
                lambda m, n=nid: self._on_seed_request(n, m.payload))

    # ------------------------------------------------------------------ #
    # Policy bookkeeping
    # ------------------------------------------------------------------ #

    def policy_of(self, handle: ObjectHandle) -> str:
        """Name of the fixed policy currently managing ``handle``."""
        return self._policy_by_obj[handle.obj_id]

    def is_adaptive(self, handle: ObjectHandle) -> bool:
        return handle.obj_id in self._adaptive_by_obj

    def _mechanism_of(self, obj_id: int) -> str:
        return FIXED_POLICIES[self._policy_by_obj[obj_id]].mechanism

    def _protocol_for_obj(self, obj_id: int):
        return self.protocols[FIXED_POLICIES[self._policy_by_obj[obj_id]].protocol]

    @property
    def num_shards(self) -> int:
        return self.router.num_shards if self.router is not None else 1

    def shard_of(self, handle: ObjectHandle) -> int:
        """The shard (and thus broadcast group) currently ordering ``handle``.

        This is the router's live view: after a :meth:`move_shard` it names
        the destination group, not the creation-time placement.
        """
        return self._ensure_router().assign(handle.obj_id, handle.name)

    def _batcher(self, node: "Node", shard: int) -> _WriteBatcher:
        key = (node.node_id, shard)
        batcher = self._batchers.get(key)
        if batcher is None:
            batcher = _WriteBatcher(self, node, self.router.group_for(shard),
                                    shard, self.batching)
            self._batchers[key] = batcher
        return batcher

    # ------------------------------------------------------------------ #
    # Object creation
    # ------------------------------------------------------------------ #

    def create_object(self, proc: "SimProcess", spec_class: Type[ObjectSpec],
                      args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None,
                      name: Optional[str] = None, policy: Any = None) -> ObjectHandle:
        """Create a shared object managed by ``policy`` (default: the RTS's)."""
        node = self._node_of(proc)
        chosen = management_policy(policy, default=self.default_policy)
        if isinstance(chosen, AdaptivePolicy):
            controller: Optional[AdaptivePolicy] = chosen
            effective = FIXED_POLICIES[chosen.initial]
        else:
            controller, effective = None, chosen
        if effective.mechanism == MECHANISM_BROADCAST or controller is not None:
            self._ensure_router()
        if effective.mechanism == MECHANISM_PRIMARY or controller is not None:
            self._ensure_primary_services()

        handle = self._new_handle(spec_class, name)
        obj_id = handle.obj_id
        self._policy_by_obj[obj_id] = effective.name
        if controller is not None:
            self._adaptive_by_obj[obj_id] = controller
            self._obj_access[obj_id] = AccessStats()
        self._created_on[obj_id] = node.node_id

        if effective.mechanism == MECHANISM_BROADCAST:
            self._create_broadcast(proc, node, handle, spec_class, args, kwargs)
        else:
            self._create_primary(proc, node, handle, spec_class, args, kwargs)
        return handle

    def _create_broadcast(self, proc: "SimProcess", node: "Node",
                          handle: ObjectHandle, spec_class: Type[ObjectSpec],
                          args: Tuple[Any, ...],
                          kwargs: Optional[Dict[str, Any]]) -> None:
        """Replicate the new object on every machine via ordered broadcast."""
        shard = self.router.note_create(handle.obj_id, handle.name)
        invocation_id = next(self._invocation_ids)
        pending = _PendingWrite(proc=proc)
        self._pending[invocation_id] = pending
        payload = ("create", handle.obj_id, spec_class, args, kwargs or {},
                   invocation_id)
        size = max(32, estimate_size(args) + estimate_size(kwargs or {}))
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        proc.absorb_overhead(node.drain_overhead())
        proc.flush()
        self.router.group_for(shard).member(node.node_id).broadcast(
            payload, size=size)
        proc.suspend()
        self._pending.pop(invocation_id, None)

    def _create_primary(self, proc: "SimProcess", node: "Node",
                        handle: ObjectHandle, spec_class: Type[ObjectSpec],
                        args: Tuple[Any, ...],
                        kwargs: Optional[Dict[str, Any]]) -> None:
        """Install the primary copy on the caller's machine."""
        instance = spec_class.create(args, kwargs)
        self.managers[node.node_id].install(handle.obj_id, handle.name, instance,
                                            is_primary=True)
        self.directory.register(handle.obj_id, node.node_id)
        self.stats.replicas_created += 1
        self._commit_record(handle.obj_id, node.node_id)
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        if self.replicate_everywhere:
            for other in self.cluster.nodes:
                if other.node_id != node.node_id:
                    self.replicate_to(handle, other.node_id)

    def replicate_to(self, handle: ObjectHandle, node_id: int) -> None:
        """Eagerly install a secondary copy on ``node_id`` (no cost charged)."""
        primary = self.directory.primary_of(handle.obj_id)
        source = self.managers[primary].get(handle.obj_id)
        if self.managers[node_id].has_valid_copy(handle.obj_id):
            return
        copy = handle.spec_class()
        copy.unmarshal_state(source.instance.marshal_state())
        self.managers[node_id].discard(handle.obj_id)
        self.managers[node_id].install(handle.obj_id, handle.name, copy,
                                       version=source.version)
        self._applied[(node_id, handle.obj_id)] = dict(
            self._applied_table(primary, handle.obj_id))
        self.directory.add_copy(handle.obj_id, node_id)
        self.stats.replicas_created += 1

    # ------------------------------------------------------------------ #
    # Unified invocation dispatch
    # ------------------------------------------------------------------ #

    def _access_stats(self, obj_id: int, node_id: int) -> AccessStats:
        return self.replication.access_stats(obj_id, node_id)

    def _invoke(self, proc: "SimProcess", site: CallSite, handle: ObjectHandle,
                args: Tuple[Any, ...], kwargs: Optional[Dict[str, Any]]) -> Any:
        node = site.node
        nid = node.node_id
        obj_id = handle.obj_id
        op = site.op
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        if op.work_units:
            proc.compute(op.work_units)

        # Cluster-wide and per-machine access accounting (one note per
        # invocation, regardless of retries or mid-flight migrations).
        access = site.access
        if op.is_write:
            self.stats.note_write(obj_id)
            access.note_write()
        else:
            access.reads += 1.0
            access.total_reads += 1

        shard_write_noted = False
        while True:
            # The policy is read on every turn: a migration must re-route
            # the very next invocation.
            mechanism = FIXED_POLICIES[self._policy_by_obj[obj_id]].mechanism
            if mechanism == MECHANISM_BROADCAST:
                if op.is_write:
                    # One shard-write note per invocation, exactly like the
                    # per-object counters — even if a migration bounces the
                    # invocation out of and back into the broadcast path.
                    # The router attributes it to the object's *current*
                    # shard, so the counters follow the object across moves.
                    if not shard_write_noted:
                        # The note carries the invocation's payload size so
                        # the router's byte window sees the same skew the
                        # wire does (args dominate; kwargs are rare).
                        self.router.note_write(
                            obj_id, handle.name,
                            nbytes=estimate_size(args) + estimate_size(kwargs))
                        shard_write_noted = True
                        if self.rebalance is not None:
                            self._maybe_start_rebalancer()
                    result = self._broadcast_write(proc, node, handle, op,
                                                   args, kwargs)
                else:
                    result = self._broadcast_read(proc, site, obj_id, args,
                                                  kwargs)
            else:
                proc.absorb_overhead(node.drain_overhead())
                if op.is_write:
                    result = self._primary_write(proc, nid, handle, op, args,
                                                 kwargs)
                else:
                    result = self._primary_read(proc, nid, handle, op, args,
                                                kwargs)
                if result is not MIGRATED and self.dynamic_replication:
                    self._apply_replication_policy(proc, nid, handle)
            if result is not MIGRATED:
                break
            # The object moved to the other mechanism while this invocation
            # was in flight; re-route it under the new policy.

        controller = self._adaptive_by_obj.get(obj_id)
        if controller is not None:
            self._adaptive_check(proc, handle, controller, op.is_write)
        return result

    def _adaptive_check(self, proc: "SimProcess", handle: ObjectHandle,
                        controller: AdaptivePolicy, is_write: bool) -> None:
        """Update the object's access window; migrate when ``controller`` says.

        The migration itself runs in a spawned thread on the invoking node:
        the client whose access tripped the threshold continues immediately
        instead of paying the freeze/switch round trips in its own request
        latency.
        """
        window = self._obj_access[handle.obj_id]
        if is_write:
            window.note_write()
        else:
            window.note_read()
        if not controller.due(window):
            return
        obj_id = handle.obj_id
        if obj_id in self._migration_pending:
            return
        if self.switch.in_flight(obj_id):
            return
        node = self._node_of(proc)
        target = controller.desired(window, self._policy_by_obj[obj_id])
        if target is None:
            # No policy move wanted; the controller's second lever is the
            # object's *shard* — relocate it off an overloaded sequencer.
            if self._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                return
            dest = controller.desired_shard(self.router, obj_id)
            if dest is None:
                return
            self._migration_pending.add(obj_id)

            def shard_move_body() -> None:
                mproc = self.sim.current_process
                try:
                    if self.move_shard(mproc, handle, dest):
                        # The window that justified the move is spent; the
                        # next decision must re-earn itself on fresh load.
                        self.router.reset_window()
                finally:
                    self._migration_pending.discard(obj_id)

            node.kernel.spawn_thread(shard_move_body,
                                     name=f"rebalance:{handle.name}")
            return
        self._migration_pending.add(obj_id)

        def migration_body() -> None:
            mproc = self.sim.current_process
            try:
                if self.migrate(mproc, handle, target):
                    window.decay(controller.params.decay)
            finally:
                self._migration_pending.discard(obj_id)

        node.kernel.spawn_thread(migration_body, name=f"migrate:{handle.name}")

    # ------------------------------------------------------------------ #
    # Cross-object atomic transactions
    # ------------------------------------------------------------------ #

    def transact(self, proc: "SimProcess", ops, on_guard: str = "retry") -> List[Any]:
        """Execute a group of operations atomically and serializably.

        ``ops`` is a sequence of ``(handle, op_name[, args[, kwargs]])``
        entries; the results are returned in the same order.  Groups whose
        participants all ride one shard's broadcast commit as a single
        ordered record; everything else runs an ordered two-phase commit
        (see :mod:`repro.txn`).  ``on_guard`` selects what happens when a
        guard rejects the group: ``"retry"`` (default) re-attempts once
        the rejecting object changes, ``"abort"`` raises
        :class:`~repro.errors.TransactionAborted` with nothing applied.

        .. caveat:: readers are not snapshot-isolated.  A cross-shard
           commit applies through per-shard ``txn-outcome`` records, and
           between those applies a plain read can observe one
           participant's post-commit state next to another's pre-commit
           state (read skew).  Writes are fully serialized — conflicting
           writes defer behind the prepare — so this never corrupts
           state; a reader needing a consistent view across objects must
           issue the reads *as a transaction* of its own.  A dedicated
           read-only fast path is an open item.
        """
        if self._txn_layer is None:
            from ..txn import TXN_KINDS, TransactionLayer

            self._txn_layer = TransactionLayer(self)
            self._deliver_kinds.update(
                dict.fromkeys(TXN_KINDS, self._txn_layer.on_deliver))
        return self._txn_layer.transact(proc, ops, on_guard=on_guard)

    # ------------------------------------------------------------------ #
    # Broadcast mechanism (reads local, writes through the ordered group)
    # ------------------------------------------------------------------ #

    def _broadcast_read(self, proc: "SimProcess", site: CallSite, obj_id: int,
                        args, kwargs) -> Any:
        manager, node, op = site.manager, site.node, site.op
        replica = manager.replicas.get(obj_id)
        if replica is None or not replica.valid:
            self._await_replica(proc, node.node_id, obj_id)
            replica = manager.get(obj_id)
        proc.absorb_overhead(node.drain_overhead())
        while True:
            result = manager.read_from(replica, op, args, kwargs)
            if result is not RETRY:
                break
            self.stats.guard_retries += 1
            self._wait_for_change(proc, node.node_id, obj_id)
            replica = manager.get(obj_id)
        stats = self.stats
        stats.local_reads += 1
        stats.per_object_reads[obj_id] = stats.per_object_reads.get(obj_id, 0) + 1
        if self.history.enabled:
            self.history.record_read(proc.name, node.node_id, obj_id, op.name,
                                     args, result, replica.version)
        return result

    def _broadcast_write(self, proc: "SimProcess", node: "Node",
                         handle: ObjectHandle, op, args, kwargs) -> Any:
        """Broadcast the write (directly or batched) and await local apply."""
        manager = self.managers[node.node_id]
        obj_id = handle.obj_id
        while True:
            # Capture the epoch *before* confirming the mechanism: a stamp
            # can only ever be stale-old, and a stale-old write sequenced
            # after the switch is dropped and re-issued.  (Reading the epoch
            # afterwards could stamp a post-switch epoch onto a write that
            # bypasses the new primary protocol.)  The epoch and the route
            # are read back to back — no suspension between them — so a
            # write is always broadcast in the group that matches its stamp;
            # a shard move between loop iterations simply re-routes the
            # retry to the destination order.
            epoch = self.switch.objects[obj_id].epoch
            shard = self.shard_of(handle)
            group = self.router.group_for(shard)
            if self._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                return MIGRATED
            if not manager.has_valid_copy(obj_id):
                self._await_replica(proc, node.node_id, obj_id)
                continue
            invocation_id = next(self._invocation_ids)
            size = max(16, estimate_size(args) + estimate_size(kwargs or {}) + 16)
            proc.absorb_overhead(node.drain_overhead())
            proc.flush()
            self.stats.broadcast_writes += 1
            # The pending entry is registered only after the (possibly
            # blocking) flush above: a policy switch may resolve pending
            # writes of this object early, and that wake must never race a
            # wait the process is parked in for some other reason.
            pending = _PendingWrite(proc=proc, obj_id=obj_id,
                                    origin=node.node_id, epoch=epoch)
            self._pending[invocation_id] = pending
            if self.batching is not None:
                entry = (obj_id, op.name, args, kwargs or {}, invocation_id,
                         epoch)
                self._batcher(node, shard).enqueue(entry, size)
            else:
                payload = ("op", obj_id, op.name, args, kwargs or {},
                           invocation_id, epoch)
                group.member(node.node_id).broadcast(payload, size=size)
            result = proc.suspend()
            self._pending.pop(invocation_id, None)
            proc.absorb_overhead(node.drain_overhead())
            if result is MIGRATED:
                return MIGRATED
            if result is not RETRY:
                return result
            # Guard rejected the operation everywhere; wait and retry.
            self.stats.guard_retries += 1
            self._wait_for_change(proc, node.node_id, obj_id)

    # -- delivery (runs at every member, in per-shard total order) ------- #

    def _deliver_create(self, member: _ShardMember,
                        record: DeliveredMessage) -> None:
        _, obj_id, spec_class, args, kwargs, invocation_id = record.payload
        if not member.manager.has_valid_copy(obj_id):
            instance = spec_class.create(args, kwargs)
            member.manager.install(obj_id, self.handle(obj_id).name, instance)
            self.stats.replicas_created += 1
        member.node.charge_overhead(self.cost_model.cpu.operation_dispatch_cost)
        self._wake_replica_waiters(member.node_id, obj_id)
        if record.origin == member.node_id:
            self._resolve(invocation_id, None)

    def _deliver_op(self, member: _ShardMember,
                    record: DeliveredMessage) -> None:
        _, obj_id, op_name, args, kwargs, invocation_id, epoch = record.payload
        self._apply_one(member.node_id, member.manager, member.node, obj_id,
                        op_name, args, kwargs, invocation_id, epoch,
                        record.origin, record.seqno)

    def _deliver_batch(self, member: _ShardMember,
                       record: DeliveredMessage) -> None:
        node_id, manager, node = member.node_id, member.manager, member.node
        origin, seqno = record.origin, record.seqno
        for obj_id, op_name, args, kwargs, invocation_id, epoch in record.payload[1]:
            self._apply_one(node_id, manager, node, obj_id, op_name, args,
                            kwargs, invocation_id, epoch, origin, seqno)
        if origin == node_id:
            batcher = self._batchers.get(member.key)
            if batcher is not None:
                batcher.on_batch_delivered()

    def _apply_one(self, node_id: int, manager, node, obj_id: int,
                   op_name: str, args, kwargs, invocation_id: int, epoch: int,
                   origin: int, seqno: int) -> None:
        """Apply one delivered write (standalone or decoded from a batch)."""
        if self._txn_layer is not None and self._txn_layer.defer_write(
                node_id, obj_id,
                (op_name, args, kwargs, invocation_id, epoch, origin, seqno)):
            # A transaction holds this member's object (prepared or epoch
            # barrier): the write replays FIFO when the lock releases —
            # before any epoch check, because the lock's release position
            # in the order is what decides the write's fate everywhere.
            return
        cursor = self.switch.cursors[node_id].get(obj_id)
        if epoch != (cursor.delivered if cursor is not None else 0):
            if self.switch.classify(node_id, obj_id, epoch) == FUTURE:
                # A post-switch write outran this member's delivery of the
                # switch itself — possible only across *groups* (a shard
                # move's destination order is not synchronised with its
                # source order) or when a new-epoch write is sequenced just
                # ahead of its own switch.  It applies, in its own group's
                # order, the moment the local switch lands; every member
                # decides alike at the same position of that order, so the
                # object's global write order stays identical everywhere.
                self.switch.cursors[node_id][obj_id].future_writes.append(
                    (op_name, args, kwargs, invocation_id, epoch, origin, seqno))
                self.switch.arm_lag_probe(node_id, obj_id)
            elif origin == node_id:
                # The write was sequenced after a switch it predates.  Every
                # member drops it at the same point in the total order; the
                # origin re-issues it under the object's new policy or route.
                self._resolve(invocation_id, MIGRATED)
            return
        site = (self._sites.get((node_id, obj_id, op_name))
                or self._site(node_id, obj_id, op_name))
        replica = manager.replicas.get(obj_id)
        if replica is None or not replica.valid:
            # Per-shard total order guarantees the create precedes every
            # operation, so a missing replica is a protocol error worth
            # failing on.
            raise RtsError(
                f"node {node_id} received operation {op_name!r} for object "
                f"{obj_id} before its create message"
            )
        result = manager.apply_write_to(replica, site.op, args, kwargs,
                                        local_origin=origin == node_id)
        # Applying the update costs CPU on every machine that holds a
        # replica: this is the overhead that limits ACP's speedup.
        node.charge_overhead(site.apply_cost)
        if self.history.enabled and result is not RETRY:
            self.history.record_write(node_id, obj_id, op_name, args, seqno,
                                      replica.version)
        if origin == node_id:
            self._resolve(invocation_id, result)

    def _resolve(self, invocation_id: int, result: Any) -> None:
        pending = self._pending.get(invocation_id)
        if pending is None or pending.resolved:
            return
        pending.resolved = True
        pending.proc.wake(result)

    # -- blocking helpers ------------------------------------------------ #

    def _await_replica(self, proc: "SimProcess", node_id: int, obj_id: int) -> None:
        """Block until this node holds a replica of ``obj_id``."""
        key = (node_id, obj_id)
        self._replica_waiters.setdefault(key, []).append(proc)
        proc.suspend()

    def _wake_replica_waiters(self, node_id: int, obj_id: int) -> None:
        for proc in self._replica_waiters.pop((node_id, obj_id), []):
            proc.wake()

    def _wait_for_change(self, proc: "SimProcess", node_id: int, obj_id: int) -> None:
        """Block until the local replica of ``obj_id`` is modified."""
        replica = self.managers[node_id].get(obj_id)
        replica.on_next_change(lambda: proc.wake())
        proc.suspend()

    # ------------------------------------------------------------------ #
    # Primary-copy mechanism (reads local-or-RPC, writes via the primary)
    # ------------------------------------------------------------------ #

    def _primary_read(self, proc: "SimProcess", nid: int, handle: ObjectHandle,
                      op, args, kwargs) -> Any:
        manager = self.managers[nid]
        replica = manager.replicas.get(handle.obj_id)
        if replica is not None and replica.valid:
            # Reads wait while the copy is locked by an in-flight update.
            while replica.locked:
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
            while True:
                result = manager.execute_read(handle.obj_id, op, args, kwargs)
                if result is not RETRY:
                    break
                self.stats.guard_retries += 1
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
            self.stats.note_read(handle.obj_id, local=True)
            return result
        # No local copy: remote read at the primary.
        while True:
            if self._mechanism_of(handle.obj_id) != MECHANISM_PRIMARY:
                return MIGRATED
            primary = self.directory.primary_of(handle.obj_id)
            if not self.cluster.node(primary).alive:
                # The primary died; the read re-routes after the takeover.
                self._await_recovery(proc, handle.obj_id)
                continue
            try:
                result = self.cluster.rpc_for(nid).call(
                    proc, primary, PORT_READ,
                    payload={"obj_id": handle.obj_id, "op_name": op.name,
                             "args": args, "kwargs": kwargs or {}},
                    size=16 + estimate_size(args),
                )
            except RpcPeerDeadError:
                self._await_recovery(proc, handle.obj_id)
                continue
            if isinstance(result, str) and result == MARKER_MIGRATED:
                return MIGRATED
            if isinstance(result, str) and result == MARKER_MIGRATING:
                # The seat exists but cannot serve yet (e.g. a takeover
                # switch still in flight): back off and retry.
                proc.hold(self.cost_model.cpu.protocol_cost * 4)
                continue
            if not (isinstance(result, str) and result == MARKER_RETRY):
                self.stats.note_read(handle.obj_id, local=False)
                return result
            self.stats.guard_retries += 1
            proc.hold(self.cost_model.cpu.protocol_cost * 4)

    def _serve_read(self, nid: int, request: RpcRequest) -> Any:
        payload = request.payload
        handle = self.handle(payload["obj_id"])
        op = handle.spec_class.operation_def(payload["op_name"])
        manager = self.managers[nid]
        if self._mechanism_of(payload["obj_id"]) != MECHANISM_PRIMARY:
            # The object migrated away while the read was in flight; the
            # client re-routes it under the new policy.
            return MARKER_MIGRATED
        if not manager.has_valid_copy(payload["obj_id"]):
            # Still a primary-copy object, but this seat cannot serve yet —
            # typically a takeover-elected primary that has not delivered
            # its own switch.  The client backs off and retries (this
            # handler runs in event context and must not block).
            return MARKER_MIGRATING
        result = manager.execute_read(payload["obj_id"], op, payload["args"],
                                      payload["kwargs"])
        if result is RETRY:
            return MARKER_RETRY
        return result

    def _primary_write(self, proc: "SimProcess", nid: int, handle: ObjectHandle,
                       op, args, kwargs, wid=None) -> Any:
        obj_id = handle.obj_id
        # One write id per invocation, stable across retries: it is what
        # lets the new primary after a crash (or the old one after a lost
        # reply) recognise a re-issued write and apply it exactly once.
        # The origin is the client *process* (names are deterministic), so
        # dedup state needs only the newest id per origin.  The transaction
        # layer passes its own stable per-sub-operation id instead.
        if wid is None:
            wid = (proc.name, next(self._write_ids))
        while True:
            if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                return self._migrated_result(obj_id, wid)
            primary = self.directory.primary_of(obj_id)
            if not self.cluster.node(primary).alive:
                # The primary died; wait out the takeover, then re-route.
                self._await_recovery(proc, obj_id)
                continue
            if primary == nid:
                # The primary must have applied every pre-switch write (i.e.
                # delivered the switch) before it can serialise new ones.
                self.switch.await_delivered(proc, nid, obj_id)
                if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                    return self._migrated_result(obj_id, wid)
                if self.switch.objects[obj_id].frozen:
                    proc.hold(self.cost_model.cpu.protocol_cost * 4)
                    continue
                if self.directory.primary_of(obj_id) != nid:
                    # The primary moved while this write was parked across
                    # the switch; route it to the new one.
                    continue
                self.stats.local_writes += 1
                result = self._commit_primary_write(proc, obj_id, op, args,
                                                    kwargs, wid)
            else:
                self.stats.rpc_writes += 1
                try:
                    result = self.cluster.rpc_for(nid).call(
                        proc, primary, PORT_WRITE,
                        payload={"obj_id": obj_id, "op_name": op.name,
                                 "args": args, "kwargs": kwargs or {},
                                 "wid": wid},
                        size=16 + estimate_size(args) + estimate_size(kwargs or {}),
                    )
                except RpcPeerDeadError:
                    # The primary crashed with this write in flight.  A
                    # surviving secondary takes over; the retry re-routes
                    # there, and the write id suppresses a second apply if
                    # the write already reached the surviving state.
                    self._await_recovery(proc, obj_id)
                    continue
                if isinstance(result, str) and result == MARKER_MIGRATED:
                    return self._migrated_result(obj_id, wid)
                if isinstance(result, str) and result == MARKER_MIGRATING:
                    proc.hold(self.cost_model.cpu.protocol_cost * 4)
                    continue
                if isinstance(result, str) and result == MARKER_RETRY:
                    result = RETRY
            if result is not RETRY:
                return result
            # Guarded write rejected: wait a little and retry at the primary.
            self.stats.guard_retries += 1
            proc.hold(self.cost_model.cpu.protocol_cost * 4)

    def _migrated_result(self, obj_id: int, wid) -> Any:
        """Route a primary write bounced by a concurrent mechanism switch.

        The commit record is the authority on whether an earlier issue of
        this write already committed under the primary regime (its reply
        may have died with the primary).  Re-routing a committed write to
        the broadcast path would apply it a second time — broadcast writes
        carry no ids — so return the recorded result instead.
        """
        committed = self._last_committed.get(obj_id)
        if committed is not None:
            duplicate, recorded = self._lookup_applied(committed[2], wid)
            if duplicate:
                self.stats.deduplicated_writes += 1
                return recorded
        return MIGRATED

    def _commit_primary_write(self, proc: "SimProcess", obj_id: int, op,
                              args, kwargs, wid) -> Any:
        """Dedup-checked protocol write at the primary, plus commit record.

        Runs on the primary node (client or RPC server thread).  A write id
        already present in the primary's applied table is a client re-issue
        of a write that committed (e.g. the reply was lost to a crash): the
        recorded result is returned without touching the object again.
        """
        primary = self.directory.primary_of(obj_id)
        if self._txn_layer is not None:
            # A transaction pinning this seat holds ordinary writes here
            # (its own sub-operations pass); serialisation order at the
            # primary is unchanged, the writes just park first.
            self._txn_layer.seat_gate(proc, obj_id, wid)
        table = self._applied_table(primary, obj_id)
        duplicate, recorded = self._lookup_applied(table, wid)
        if duplicate:
            self.stats.deduplicated_writes += 1
            return recorded
        key = (primary, obj_id)
        self._inflight_writes[key] = self._inflight_writes.get(key, 0) + 1
        try:
            result = self._protocol_for_obj(obj_id).primary_write(
                proc, obj_id, op, args, kwargs, wid=wid)
        finally:
            remaining = self._inflight_writes.get(key, 0) - 1
            if remaining > 0:
                self._inflight_writes[key] = remaining
            else:
                self._inflight_writes.pop(key, None)
        if result is not RETRY:
            if wid is not None:
                table[wid[0]] = (wid[1], result)
            # The record is refreshed at EVERY commit point, like the
            # write-ahead commit record it models: deferring it while live
            # secondaries exist would lose committed writes when the
            # primary and the last secondary die together (the takeover
            # would restore a stale snapshot).  The O(state) copy per
            # commit is the price of that durability.
            self._commit_record(obj_id, primary)
        return result

    def _serve_write(self, nid: int, request: RpcRequest) -> Any:
        payload = request.payload
        obj_id = payload["obj_id"]
        handle = self.handle(obj_id)
        op = handle.spec_class.operation_def(payload["op_name"])
        proc = self.sim.current_process
        if proc is None:
            raise RtsError("write handler must run in a blocking-capable context")
        if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        self.switch.await_delivered(proc, nid, obj_id)
        if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        if self.switch.objects[obj_id].frozen:
            return MARKER_MIGRATING
        if self.directory.primary_of(obj_id) != nid:
            # Stale primary: the object migrated here and away again.
            return MARKER_MIGRATING
        result = self._commit_primary_write(proc, obj_id, op, payload["args"],
                                            payload["kwargs"],
                                            payload.get("wid"))
        if result is RETRY:
            return MARKER_RETRY
        return result

    # -- dynamic replication --------------------------------------------- #

    def _apply_replication_policy(self, proc: "SimProcess", nid: int,
                                  handle: ObjectHandle) -> None:
        manager = self.managers[nid]
        has_copy = manager.has_valid_copy(handle.obj_id)
        is_primary = self.directory.primary_of(handle.obj_id) == nid
        if self.replication.should_fetch_copy(handle.obj_id, nid, has_copy):
            self._fetch_copy(proc, nid, handle)
        elif self.replication.should_drop_copy(handle.obj_id, nid, has_copy,
                                               is_primary):
            manager.discard(handle.obj_id)
            self.directory.remove_copy(handle.obj_id, nid)
            self.stats.replicas_dropped += 1
            primary = self.directory.primary_of(handle.obj_id)
            self.send_protocol_message(nid, primary, KIND_DROP,
                                       {"obj_id": handle.obj_id, "node": nid})

    def _fetch_copy(self, proc: "SimProcess", nid: int, handle: ObjectHandle) -> None:
        """Fetch the object state from the primary and install a local copy."""
        primary = self.directory.primary_of(handle.obj_id)
        if primary == nid or not self.cluster.node(primary).alive:
            return
        try:
            reply = self.cluster.rpc_for(nid).call(
                proc, primary, PORT_FETCH,
                payload={"obj_id": handle.obj_id, "requester": nid},
                size=24,
            )
        except RpcPeerDeadError:
            # The primary died under the fetch; skip it — the next access
            # retries against whatever primary the takeover installs.
            return
        if isinstance(reply, str) and reply == MARKER_MIGRATED:
            return
        state, version, applied = reply
        if self._mechanism_of(handle.obj_id) != MECHANISM_PRIMARY:
            return
        instance = handle.spec_class()
        instance.unmarshal_state(state)
        manager = self.managers[nid]
        manager.discard(handle.obj_id)
        manager.install(handle.obj_id, handle.name, instance, version=version)
        self._applied[(nid, handle.obj_id)] = dict(applied)
        self.stats.replicas_created += 1

    def _serve_fetch(self, nid: int, request: RpcRequest):
        payload = request.payload
        obj_id = payload["obj_id"]
        proc = self.sim.current_process
        if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        if proc is not None:
            self.switch.await_delivered(proc, nid, obj_id)
        if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        manager = self.managers[nid]
        replica = manager.get(obj_id)
        # Do not hand out state in the middle of a write's critical section.
        while replica.locked and proc is not None:
            replica.on_next_change(lambda p=proc: p.wake())
            proc.suspend()
        self.directory.add_copy(obj_id, payload["requester"])
        state = replica.instance.marshal_state()
        # The applied-write table travels with the copy (bounded at one
        # entry per client), so a secondary promoted after a primary crash
        # can recognise re-issued writes; its bytes ride the reply.
        applied = dict(self._applied_table(nid, obj_id))
        return RpcReply(payload=(state, replica.version, applied),
                        size=(replica.instance.state_size() + 16
                              + estimate_size(applied)))

    # -- exactly-once bookkeeping (write ids + commit record) ------------- #

    def _applied_table(self, node_id: int, obj_id: int) -> Dict:
        """The applied-write-id table of one machine's copy of one object."""
        return self._applied.setdefault((node_id, obj_id), {})

    def record_applied(self, node_id: int, obj_id: int, wid, result) -> None:
        """Note that ``node_id``'s copy has applied write ``wid``.

        Called by the update protocol's secondary side, so a secondary
        promoted by a takeover can recognise the client re-issue of a write
        that was in flight when the primary died.  Only the newest id per
        origin client is kept (FIFO clients have one write outstanding).
        """
        if wid is None or result is RETRY:
            return
        origin, seq = wid
        self._applied_table(node_id, obj_id)[origin] = (seq, result)

    @staticmethod
    def _lookup_applied(table: Dict, wid) -> Tuple[bool, Any]:
        """Was ``wid`` the last write this copy applied for its origin?"""
        if wid is None:
            return False, None
        entry = table.get(wid[0])
        if entry is not None and entry[0] == wid[1]:
            return True, entry[1]
        return False, None

    def _commit_record(self, obj_id: int, primary: Optional[int] = None) -> None:
        """Refresh the object's last-committed record from its primary copy.

        The record — state snapshot, version, and the applied-write table —
        is what a takeover falls back to when no surviving machine holds a
        valid copy (a primary-invalidate object dies with every write's
        sole copy).  It models the commit record the primary writes at the
        protocol's commit point; like the directory it is bookkeeping and
        charges no communication.
        """
        if primary is None:
            primary = self.directory.primary_of(obj_id)
        manager = self.managers[primary]
        if not manager.has_valid_copy(obj_id):
            return
        replica = manager.get(obj_id)
        self._last_committed[obj_id] = (
            replica.instance.marshal_state(), replica.version,
            self._applied_table(primary, obj_id))

    # -- protocol plumbing used by the coherence strategies --------------- #

    def new_transaction(self, expected_acks: int,
                        destinations: Optional[List[int]] = None) -> int:
        txn_id = next(self._txn_ids)
        self._transactions[txn_id] = _Transaction(
            remaining=expected_acks,
            destinations=set(destinations or ()))
        return txn_id

    def await_acks(self, proc: "SimProcess", txn_id: int) -> None:
        txn = self._transactions[txn_id]
        if txn.remaining > 0:
            txn.proc = proc
            proc.suspend()
        del self._transactions[txn_id]

    def send_ack(self, from_node: int, txn_id: int) -> None:
        primary_node = self._ack_destinations.get(txn_id)
        if primary_node is None:
            return
        self.send_protocol_message(from_node, primary_node, KIND_ACK,
                                   {"txn_id": txn_id, "node": from_node})

    def send_protocol_message(self, src: int, dst: int, kind: str,
                              payload: Dict[str, Any]) -> None:
        if kind in (KIND_UPDATE,):
            size = 32 + estimate_size(payload.get("args", ())) + estimate_size(
                payload.get("kwargs", {}))
        else:
            size = 32
        if kind in (KIND_INVALIDATE, KIND_UPDATE, KIND_UNLOCK):
            # Stamp coherence traffic with the regime it was issued under,
            # so a message that was in flight when a takeover (or switch)
            # superseded its regime is dropped identically at every member.
            payload.setdefault(
                "epoch", self.switch.objects[payload["obj_id"]].epoch)
        node = self.cluster.node(src)
        msg = node.make_message(dst, kind, payload=payload, size=size)
        node.send(msg)
        if kind in (KIND_INVALIDATE, KIND_UPDATE):
            self._ack_destinations[payload["txn_id"]] = src

    # -- incoming protocol messages --------------------------------------- #

    def _drop_stale(self, nid: int, payload: Dict[str, Any]) -> None:
        if "txn_id" in payload:
            # Acknowledge so a (possibly still live) old primary waiting on
            # the fan-out is not left hanging.
            self.send_ack(nid, payload["txn_id"])

    def _on_coherence(self, nid: int, kind: str, payload: Dict[str, Any]) -> None:
        """A coherence message reached a copy holder: by its epoch against
        the member's switch cursor it is applied, parked or dropped."""
        verdict = self.switch.screen(nid, kind, payload)
        if verdict == CURRENT:
            self._coherence[kind](nid, payload)
        elif verdict == STALE and kind != KIND_UNLOCK:
            self._drop_stale(nid, payload)

    def _on_ack(self, nid: int, payload: Dict[str, Any]) -> None:
        txn = self._transactions.get(payload["txn_id"])
        if txn is None:
            return
        if txn.destinations:
            # An ack only counts while its sender still owes one: a node
            # that crashed with its ack in flight already had its debt
            # released by the crash listener, and double-counting it would
            # complete the fan-out before the live secondaries applied.
            if payload.get("node") not in txn.destinations:
                return
            txn.destinations.discard(payload.get("node"))
        txn.remaining -= 1
        if txn.remaining <= 0 and txn.proc is not None:
            txn.proc.wake()

    def _on_node_crash(self, crashed: int) -> None:
        """React to a machine crash: release debts, prune copies, recover.

        Three duties, in order: (a) release every acknowledgement the dead
        machine will never send, so primaries mid-fan-out complete on the
        survivors; (b) prune its copies from the directory and discard its
        primary-managed replicas (their state died with the machine, and a
        later :meth:`Node.recover` must never serve them); (c) start a
        primary takeover for every object whose primary seat just died.
        """
        for txn in list(self._transactions.values()):
            if crashed in txn.destinations:
                txn.destinations.discard(crashed)
                txn.remaining -= 1
                if txn.remaining <= 0 and txn.proc is not None:
                    txn.proc.wake()
        # Its copies die with it: prune the directory so later fan-outs and
        # migrations never count on the dead member.
        for obj_id in self.directory.objects():
            entry = self.directory.entry(obj_id)
            if crashed != entry.primary_node:
                entry.copyset.discard(crashed)
        dead_manager = self.managers[crashed]
        for obj_id, policy in list(self._policy_by_obj.items()):
            if (FIXED_POLICIES[policy].mechanism == MECHANISM_PRIMARY
                    and obj_id in dead_manager.replicas):
                dead_manager.discard(obj_id)
        self._schedule_recoveries()
        if self._txn_layer is not None:
            # After the runtime's own recovery: orphaned transactions (the
            # dead machine coordinated them) are driven to completion by
            # the lowest live node under presumed abort.
            self._txn_layer.on_node_crash(crashed)

    def _on_drop(self, nid: int, payload: Dict[str, Any]) -> None:
        # A secondary informs the primary that it discarded its copy; the
        # directory may already reflect this (the secondary updates it
        # directly), so this is a tolerant no-op if so.
        self.directory.entry(payload["obj_id"]).copyset.discard(payload["node"])

    # ------------------------------------------------------------------ #
    # Live migration between policies
    # ------------------------------------------------------------------ #

    def migrate(self, proc: "SimProcess", handle: ObjectHandle,
                policy: Any, primary: Optional[int] = None) -> bool:
        """Move ``handle`` under ``policy`` while the cluster runs.

        ``primary`` pins the primary copy onto a specific (live,
        copy-holding) node when migrating to primary-copy management; by
        default the node with the most observed writes is chosen (should
        that machine crash later, a surviving copy takes the seat over).

        Returns ``True`` when a migration was performed, ``False`` when the
        object already runs under the requested policy or the switch was
        refused or aborted (see :meth:`SwitchEngine.admit`).
        """
        target = management_policy(policy, default=self.default_policy)
        if isinstance(target, AdaptivePolicy):
            raise ConfigurationError(
                "migrate() takes a fixed policy; attach adaptive control at "
                "create_object(policy='adaptive') time")
        obj_id = handle.obj_id
        if target.name == self._policy_by_obj[obj_id]:
            return False
        node = self._node_of(proc)
        with self.switch.admit(obj_id, node.node_id,
                               pause_for_catch_up=True) as admitted:
            if not admitted:
                return False
            if target.mechanism == self._mechanism_of(obj_id) == MECHANISM_PRIMARY:
                # Same mechanism, different coherence protocol: pure
                # bookkeeping, no broadcast needed (so this works on
                # point-to-point-only networks too).  Secondary-side
                # handling routes by message kind, so writes in flight
                # under the old protocol complete untouched.
                self._policy_by_obj[obj_id] = target.name
                self.stats.migrations += 1
                self.migrations.append(MigrationRecord(
                    obj_id=obj_id, name=handle.name, target=target.name,
                    epoch=self.switch.epoch_of(obj_id),
                    primary_node=self.directory.primary_of(obj_id)))
                return True
            # Mechanism changes ride the object's shard broadcast and may
            # land it under primary-copy management: both wirings needed.
            self._ensure_router()
            self._ensure_primary_services()
            if target.mechanism == MECHANISM_PRIMARY:
                self._migrate_to_primary(proc, node, handle, target.name,
                                         primary)
                return True
            # primary -> broadcast: freeze, snapshot, switch carrying the
            # state (each member installs it on delivery — the totally-ordered
            # state transfer).  From the new epoch on, writes route through
            # the broadcast.
            snapshot = self.switch.snapshot_from_primary(proc, node, obj_id)
            if snapshot is None:
                return False
            epoch = self.switch.advance(obj_id)
            self._policy_by_obj[obj_id] = "broadcast"
            self.stats.migrations += 1
            self.stats.migrations_to_broadcast += 1
            self.migrations.append(MigrationRecord(
                obj_id=obj_id, name=handle.name, target="broadcast",
                epoch=epoch, primary_node=None))
            self.switch.broadcast(
                proc, node,
                SwitchRecord(obj_id, epoch, "broadcast", -1, snapshot + (None,)),
                size=32 + estimate_size(snapshot[0]))
            return True

    def _most_writes(self, obj_id: int,
                     candidates: List[int]) -> Tuple[Optional[int], int]:
        """Of ``candidates``, the node with the most observed writes to
        ``obj_id`` (ties: the lowest id), and that count."""
        def writes(nid: int) -> int:
            return self.replication.decider.stats_for(obj_id, nid).total_writes

        best = max(candidates, key=lambda nid: (writes(nid), -nid), default=None)
        return best, (writes(best) if best is not None else 0)

    def _choose_primary(self, obj_id: int, copyset: List[int]) -> int:
        """The copy-holding live node with the most observed writes (while
        nobody has written: the creator, if it holds a copy)."""
        best, writes = self._most_writes(obj_id, copyset)
        creator = self._created_on.get(obj_id)
        return creator if not writes and creator in copyset else best

    def _migrate_to_primary(self, proc: "SimProcess", node: "Node",
                            handle: ObjectHandle, target: str,
                            primary_override: Optional[int]) -> None:
        """broadcast -> primary: flip routing, then switch in total order
        (the identical replicas simply become the primary and secondary
        copies — no state transfer)."""
        obj_id = handle.obj_id
        copyset = self._live_holders(obj_id)
        if not copyset:
            raise RtsError(f"no live replica of object {obj_id} to migrate")
        if primary_override is not None:
            if primary_override not in copyset:
                raise RtsError(
                    f"node {primary_override} holds no live replica of "
                    f"object {obj_id}; cannot become its primary")
            primary = primary_override
        else:
            primary = self._choose_primary(obj_id, copyset)
        # Flip the global routing first: new writes head for the primary,
        # where they wait until it has delivered the switch below.
        epoch = self.switch.advance(obj_id)
        self._policy_by_obj[obj_id] = target
        self.directory.seat(obj_id, primary, copyset)
        self.stats.migrations += 1
        self.stats.migrations_to_primary += 1
        self.migrations.append(MigrationRecord(
            obj_id=obj_id, name=handle.name, target=target, epoch=epoch,
            primary_node=primary))
        self._commit_record(obj_id, primary)
        self.switch.broadcast(proc, node,
                              SwitchRecord(obj_id, epoch, target, primary))

    # ------------------------------------------------------------------ #
    # Cross-group rebalancing: shard moves, live growth, primary seats
    # ------------------------------------------------------------------ #

    def move_shard(self, proc: "SimProcess", handle: ObjectHandle,
                   new_shard: int) -> bool:
        """Move ``handle`` onto broadcast group ``new_shard`` while it runs.

        For a broadcast-managed object this is the drain-and-switch barrier:
        the route flips first (new writes head for the destination order
        under a fresh epoch), the switch's *drain* leg retires the old route
        at one position of the source order, and its *arrive* leg proves the
        destination group's sequencing path carries the object before the
        move is reported complete.  At every machine the object's write
        order is thus a source-order prefix followed by a destination-order
        suffix: no write is lost, duplicated, or reordered within its
        client's FIFO.  A primary-copy object rides no ordered broadcast, so
        its move is routing bookkeeping (the next switch rides the new group).

        Returns ``True`` when a move was performed, ``False`` when the
        object already lives on ``new_shard`` or the switch was refused
        (see :meth:`SwitchEngine.admit`).
        """
        router = self._ensure_router()
        obj_id = handle.obj_id
        if not 0 <= new_shard < router.num_shards:
            raise ConfigurationError(
                f"cannot move {handle.name!r} to shard {new_shard}: only "
                f"{router.num_shards} shards exist")
        src = self.shard_of(handle)
        if src == new_shard:
            return False
        node = self._node_of(proc)
        with self.switch.admit(obj_id, node.node_id,
                               pause_for_catch_up=True) as admitted:
            if not admitted:
                return False
            ordered = self._mechanism_of(obj_id) == MECHANISM_BROADCAST
            epoch = (self.switch.advance(obj_id, arrive=True) if ordered
                     else self.switch.epoch_of(obj_id))
            router.move(obj_id, new_shard)
            self._last_moved_at[obj_id] = self.sim.now
            self.stats.shard_moves += 1
            self.shard_moves.append(ShardMoveRecord(
                obj_id=obj_id, name=handle.name, src=src, dst=new_shard,
                epoch=epoch))
            if ordered:
                for leg, shard in ((LEG_DRAIN, src), (LEG_ARRIVE, new_shard)):
                    self.switch.broadcast(
                        proc, node,
                        SwitchRecord(obj_id, epoch, self._policy_by_obj[obj_id],
                                     -1, leg=leg),
                        shard=shard)
            return True

    def _heaviest_writer(self, obj_id: int) -> Optional[int]:
        """The live node with the most observed writes to ``obj_id``, if any."""
        best, writes = self._most_writes(
            obj_id, [node.node_id for node in self.cluster.nodes if node.alive])
        return best if writes else None

    def relocate_primary(self, proc: "SimProcess", handle: ObjectHandle,
                         target: Optional[int] = None) -> bool:
        """Move a primary-copy object's primary seat to ``target``.

        ``target`` defaults to the object's heaviest writer (per the
        dynamic-replication statistics), turning remote-write RPC streams
        into local writes.  The object is frozen at the old primary
        (in-flight coherence writes drain first) and its snapshot rides a
        switch scoped to the copy-holding members plus the target.

        Returns ``True`` when the seat moved, ``False`` when the target
        already holds it, no traffic suggests a better seat, or the switch
        was refused or aborted (see :meth:`SwitchEngine.admit`).
        """
        obj_id = handle.obj_id
        if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            raise RtsError(
                f"{handle.name!r} is broadcast-managed; relocate_primary "
                "applies to primary-copy objects (use move_shard instead)")
        if target is None:
            target = self._heaviest_writer(obj_id)
            if target is None:
                return False
        if not self.cluster.node(target).alive:
            raise RtsError(f"node {target} is crashed and cannot become "
                           f"the primary of {handle.name!r}")
        if not self.is_full_member(target):
            # Alive but not (or not staying) a full member: a seat parked
            # there would serve from un-reseeded state or be orphaned the
            # moment the drain retires the machine.  Abort cleanly.
            return False
        if target == self.directory.primary_of(obj_id):
            return False
        if not self.cluster.node(self.directory.primary_of(obj_id)).alive:
            # The seat is already dead; the crash takeover owns the object.
            return False
        node = self._node_of(proc)
        with self.switch.admit(obj_id, node.node_id) as admitted:
            if not admitted:
                return False
            self._ensure_router()
            primary = self.directory.primary_of(obj_id)
            snapshot = self.switch.snapshot_from_primary(proc, node, obj_id)
            if snapshot is None or not self.cluster.node(target).alive:
                # Aborted, or the chosen seat died during the snapshot: leaving
                # the gate unfreezes the (still intact) old primary.
                return False
            table = dict(self._applied_table(primary, obj_id))
            scope = tuple(sorted(
                set(self.directory.entry(obj_id).copyset) | {primary, target}))
            self.stats.primary_relocations += 1
            self.relocations.append((obj_id, primary, target))
            self.switch.reseat(proc, node, obj_id, target,
                               snapshot + (table,), scope)
            return True

    # ------------------------------------------------------------------ #
    # Primary-failure recovery (takeover by a surviving secondary)
    # ------------------------------------------------------------------ #

    def _schedule_recoveries(self) -> None:
        """Start a takeover for every object whose primary seat is dead.

        Runs inside the node-crash listener.  The successor is chosen
        deterministically (freshest surviving copy — highest coherence
        version — ties to the lowest node id; with no valid copy left, the
        lowest live node id restores from the commit record), and the
        takeover itself runs in a thread on the successor: the broadcast
        switch it sends cannot ride the crash listener's event context.
        """
        if not self.cluster.network.supports_broadcast:
            # No total order to carry a takeover switch on this hardware:
            # the object dies with its primary, exactly as in the paper.
            return
        for obj_id in self.directory.objects():
            if self._policy_by_obj.get(obj_id) is None:
                continue
            if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            primary = self.directory.primary_of(obj_id)
            if self.cluster.node(primary).alive:
                continue
            coordinator = self._recovering.get(obj_id)
            if (coordinator is not None
                    and self.cluster.node(coordinator).alive):
                continue  # a live takeover is already on its way
            successor = self._choose_successor(obj_id)
            if successor is None:
                continue  # no live machine (or no record) to recover onto
            self._recovering[obj_id] = successor
            self.cluster.node(successor).kernel.spawn_thread(
                self._recover_primary, obj_id, primary, self.sim.now,
                name=f"takeover:{self.handle(obj_id).name}", daemon=True)

    def _live_holders(self, obj_id: int) -> List[int]:
        """The live machines holding a valid copy of ``obj_id``, ascending."""
        return [node.node_id for node in self.cluster.nodes
                if node.alive and self.managers[node.node_id].has_valid_copy(obj_id)]

    def _choose_successor(self, obj_id: int) -> Optional[int]:
        """The deterministic takeover winner for one dead-primary object."""
        holders = self._live_holders(obj_id)
        if holders:
            return max(holders, key=lambda nid: (
                self.managers[nid].get(obj_id).version, -nid))
        if obj_id not in self._last_committed:
            return None
        live = [node.node_id for node in self.cluster.nodes if node.alive]
        return min(live) if live else None

    def _recover_primary(self, obj_id: int, old_primary: int,
                         crashed_at: float) -> None:
        """Takeover body, running on the successor node.

        Re-validates the situation (another takeover, a relocation or a
        policy migration may have won the race), promotes this node's copy —
        or the last-committed record when no valid copy survived — and
        reseats the object here: every member installs the same state at
        the same point of the object's write order, and writes from the dead
        regime are dropped identically everywhere.
        """
        proc = self.sim.current_process
        node = self._node_of(proc)
        try:
            if (self._policy_by_obj.get(obj_id) is None
                    or self._mechanism_of(obj_id) != MECHANISM_PRIMARY):
                return
            if self.cluster.node(self.directory.primary_of(obj_id)).alive:
                return  # superseded: the seat already landed somewhere live
            handle = self.handle(obj_id)
            successor = node.node_id
            manager = self.managers[successor]
            from_snapshot = not manager.has_valid_copy(obj_id)
            if from_snapshot:
                committed = self._last_committed.get(obj_id)
                if committed is None:
                    return  # nothing to recover from
                state, version, table = committed
            else:
                replica = manager.get(obj_id)
                state, version = replica.instance.marshal_state(), replica.version
                table = self._applied_table(successor, obj_id)
            self._ensure_router()
            self.stats.primary_recoveries += 1
            record = RecoveryRecord(
                obj_id=obj_id, name=handle.name, old_primary=old_primary,
                new_primary=successor, epoch=self.switch.epoch_of(obj_id) + 1,
                from_snapshot=from_snapshot, crashed_at=crashed_at)
            self.recoveries.append(record)
            # No admission gate: a takeover overrides whatever switch was
            # preparing (its admission is revoked and its freeze lifted).
            self.switch.reseat(proc, node, obj_id, successor,
                               (state, version, dict(table)),
                               tuple(sorted({successor, *self._live_holders(obj_id)})))
            record.completed_at = self.sim.now
        finally:
            if self._recovering.get(obj_id) == node.node_id:
                self._recovering.pop(obj_id, None)

    def _await_recovery(self, proc: "SimProcess", obj_id: int) -> None:
        """Park a client until the object's primary seat is live again."""
        while (self._mechanism_of(obj_id) == MECHANISM_PRIMARY
               and not self.cluster.node(
                   self.directory.primary_of(obj_id)).alive):
            if not self.cluster.network.supports_broadcast:
                raise RtsError(
                    f"primary of object {obj_id} crashed and this cluster's "
                    f"{self.cluster.network.name!r} network cannot order a "
                    "takeover switch; the object is lost (as in the paper)")
            proc.hold(self.cost_model.cpu.protocol_cost * 4)

    # ------------------------------------------------------------------ #
    # Elasticity: rejoin after recovery, planned drain, live scale-in
    # ------------------------------------------------------------------ #

    def is_caught_up(self, node_id: int) -> bool:
        """Has ``node_id`` completed its rejoin catch-up (or never needed one)?"""
        if node_id in self._catching_up:
            return False
        if self.router is not None:
            for shard in self.router.active_shards():
                if not self.router.group_for(shard).member(node_id).synced:
                    return False
        return True

    def is_full_member(self, node_id: int) -> bool:
        """Alive, caught up and staying: may ``node_id`` be handed a seat?"""
        return (self.cluster.node(node_id).alive
                and node_id not in self._catching_up
                and node_id not in self._draining)

    def _abort_rejoin(self, crashed: int) -> None:
        """A crash voids any rejoin catch-up in progress for the node.

        Bumping the rejoin epoch makes the running catch-up thread abandon
        itself at its next blocking point and invalidates any seed still in
        flight toward the dead machine, so a *second* recovery starts from
        a clean slate instead of accepting state captured for the first.
        """
        if crashed in self._catching_up:
            self._catching_up.discard(crashed)
            self._rejoin_epoch[crashed] = self._rejoin_epoch.get(crashed, 0) + 1
        for key in [k for k in self._awaiting_seed if k[0] == crashed]:
            self._awaiting_seed.discard(key)
        for key in [k for k in self._seed_buffer if k[0] == crashed]:
            del self._seed_buffer[key]
        # Commits that died mid-flight on the crashed machine must not
        # wedge a later freeze of a recovered or relocated seat.
        for key in [k for k in self._inflight_writes if k[0] == crashed]:
            del self._inflight_writes[key]

    def _on_node_recover(self, recovered: int) -> None:
        """React to a machine recovery: apply the crash's loss, start catch-up.

        Runs synchronously in the recover listener.  The crash's loss of
        RTS state is applied here rather than at crash time (so runs that
        never recover a node behave exactly as before): every replica the
        machine held — both mechanisms — its applied-write tables, epoch
        cursors, deferred traffic and write batchers are gone.  A rejoin
        thread then re-earns membership shard by shard before the member
        serves the cluster again.
        """
        manager = self.managers[recovered]
        for obj_id in list(manager.replicas):
            manager.discard(obj_id)
            self._forget_directory_copy(obj_id, recovered)
        for key in [k for k in self._applied if k[0] == recovered]:
            del self._applied[key]
        self.switch.wipe_node(recovered)
        if self._txn_layer is not None:
            # The member's lock entries and outcome markers died with it;
            # the rejoin seeds re-establish them from a donor.
            self._txn_layer.on_node_recover(recovered)
        kernel = self.cluster.node(recovered).kernel
        for key in [k for k in self._batchers if k[0] == recovered]:
            batcher = self._batchers.pop(key)
            if batcher._timer is not None:
                kernel.cancel_timer(batcher._timer)
            if batcher._backoff_timer is not None:
                kernel.cancel_timer(batcher._backoff_timer)
        generation = self._rejoin_epoch.get(recovered, 0) + 1
        self._rejoin_epoch[recovered] = generation
        self._catching_up.add(recovered)
        record = RejoinRecord(node_id=recovered, recovered_at=self.sim.now)
        self.rejoins.append(record)
        kernel.spawn_thread(self._rejoin_body, recovered, generation, record,
                            name=f"rejoin:{recovered}", daemon=True)

    def _forget_directory_copy(self, obj_id: int, node_id: int) -> None:
        """Drop a wiped machine from one object's copyset (primary stays:
        a dead/blank seat is the crash takeover's business, not ours)."""
        try:
            entry = self.directory.entry(obj_id)
        except RtsError:
            return
        if entry.primary_node != node_id:
            entry.copyset.discard(node_id)

    def _rejoin_body(self, recovered: int, generation: int,
                     record: RejoinRecord) -> None:
        """Catch-up thread on a recovered node: seats, anchors, seeds, epochs."""
        proc = self.sim.current_process
        node = self.cluster.node(recovered)

        def abandoned() -> bool:
            return (self._rejoin_epoch.get(recovered, 0) != generation
                    or not node.alive)

        if self.router is not None:
            for shard in self.router.active_shards():
                if abandoned():
                    return
                self._rejoin_shard(proc, recovered, shard, generation)
        if abandoned():
            return
        # Primary-mechanism objects carry no state in the seeds (their
        # copies re-replicate on demand); jump this member's epoch cursors
        # to the present so coherence traffic is not deferred forever
        # waiting on pre-crash switches the member will never deliver.
        for handle in sorted(self.handles(), key=lambda h: h.obj_id):
            if self._mechanism_of(handle.obj_id) == MECHANISM_PRIMARY:
                self.switch.fast_forward(recovered, handle.obj_id)
        self._catching_up.discard(recovered)
        self.stats.node_rejoins += 1
        record.completed_at = self.sim.now
        # Seat hand-back happens after the member is a full member again
        # (the relocation guard would refuse a catching-up target).
        record.seats_handed_back = self._hand_back_seats(proc, recovered)
        self.stats.seats_handed_back += record.seats_handed_back

    def _rejoin_shard(self, proc: "SimProcess", recovered: int, shard: int,
                      generation: int) -> None:
        """Re-enter one broadcast group's total order (anchor + seed)."""
        group = self.router.group_for(shard)
        member = group.member(recovered)
        node = self.cluster.node(recovered)
        if group.sequencer_node_id == recovered:
            # The seat's in-memory state died with the crash; hand it to
            # the lowest caught-up peer, renumbering from live evidence.
            donors = self._seed_donors(shard, recovered)
            if not donors:
                # Sole survivor: re-found the order from scratch.  Whatever
                # predated the crash is lost cluster-wide.
                group.install_sequencer(recovered, 1)
                member.mark_synced()
                return
            group.handoff_sequencer(donors[0], trust_old=False)
        key = (recovered, shard)
        self._awaiting_seed.add(key)
        invocation_id = next(self._invocation_ids)
        self._pending[invocation_id] = _PendingWrite(proc=proc)
        proc.flush()
        member.begin_rejoin(("rejoin", recovered, generation, invocation_id),
                            size=CONTROL_MESSAGE_SIZE)
        proc.suspend()
        self._pending.pop(invocation_id, None)
        # Await the out-of-band seed; re-request on a timeout (the donor
        # chosen at the anchor's delivery may have died before sending, or
        # its unicast may have been lost).
        while key in self._awaiting_seed:
            proc.hold(group.retry_timeout)
            if (self._rejoin_epoch.get(recovered, 0) != generation
                    or not node.alive):
                return
            if key in self._awaiting_seed:
                self._request_seed(recovered, shard, generation)

    def _seed_donors(self, shard: int, rejoining: int) -> List[int]:
        """Live, synced, caught-up members able to seed a rejoin (sorted)."""
        group = self.router.group_for(shard)
        return sorted(
            nid for nid, member in group.members.items()
            if member.node.alive and member.synced and nid != rejoining
            and nid not in self._catching_up)

    def _apply_rejoin(self, member: _ShardMember,
                      delivered: DeliveredMessage) -> None:
        """One member's delivery of a recovered peer's rejoin anchor.

        At the rejoining member itself the anchor's arrival already
        fast-forwarded the ordering engine (group layer); here it only
        wakes the rejoin thread.  At every other member, the lowest-id
        eligible peer captures the seed — the shard's object states exactly
        as of the anchor's position in the order — and unicasts it.
        """
        _, rejoining, generation, invocation_id = delivered.payload
        node_id, shard = member.key
        member.node.charge_overhead(self.cost_model.cpu.operation_dispatch_cost)
        if node_id == rejoining:
            self._resolve(invocation_id, None)
            return
        if self._rejoin_epoch.get(rejoining, 0) != generation:
            return  # a newer crash already voided this rejoin
        donors = self._seed_donors(shard, rejoining)
        if donors and donors[0] == node_id:
            # ``upto`` is the anchor's own position: at this point in the
            # delivery loop the donor's state reflects exactly the order up
            # to and including the anchor (later messages in the same
            # deliverable batch have not run their handlers yet).
            self._send_seed(node_id, rejoining, shard, generation,
                            upto=delivered.seqno)

    def _send_seed(self, donor: int, rejoining: int, shard: int,
                   generation: int, upto: int) -> None:
        """Capture and unicast one shard's rejoin seed from ``donor``.

        The capture is synchronous at the donor's delivery position
        ``upto``: the recipient skips delivering anything at or below it,
        so seed state plus replayed order reconstruct the donor's history
        exactly.  Broadcast-mechanism objects routed through this shard
        travel with state, version and epoch cursors; primary-mechanism
        objects need no state here (copies re-replicate on demand).
        """
        manager = self.managers[donor]
        objects: List[Tuple[Any, ...]] = []
        shard_objs: List[int] = []
        payload_bytes = 0
        for handle in sorted(self.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if self._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                continue
            if self.router.assign(obj_id, handle.name) != shard:
                continue
            shard_objs.append(obj_id)
            if not manager.has_valid_copy(obj_id):
                continue
            replica = manager.get(obj_id)
            objects.append((obj_id, replica.instance.marshal_state(),
                            replica.version)
                           + self.switch.position(donor, obj_id))
            payload_bytes += replica.instance.state_size()
        payload = {"shard": shard, "generation": generation, "upto": upto,
                   "objects": objects}
        if self._txn_layer is not None:
            # Transaction lock entries and queues travel with the replica
            # state: they are as much a part of the donor's position in
            # the order as the object versions are.
            payload["txn"] = self._txn_layer.seed_state(donor, shard_objs)
        node = self.cluster.node(donor)
        node.send(node.make_message(
            rejoining, KIND_SEED, size=32 + payload_bytes,
            payload=payload))

    def _request_seed(self, rejoining: int, shard: int,
                      generation: int) -> None:
        """Re-request a seed that never arrived (donor died or loss)."""
        donors = self._seed_donors(shard, rejoining)
        if not donors:
            # Degraded rejoin: nobody left who could seed this member.
            # Whatever predated the anchor is lost cluster-wide; proceed
            # with what the order delivers from here on.
            self._finish_seed(rejoining, shard, upto=0)
            return
        node = self.cluster.node(rejoining)
        node.send(node.make_message(
            donors[0], KIND_SEED_REQ, size=CONTROL_MESSAGE_SIZE,
            payload={"shard": shard, "requester": rejoining,
                     "generation": generation}))

    def _on_seed_request(self, node_id: int, payload: Dict[str, Any]) -> None:
        """A donor answers a rejoiner's re-request with a fresh seed."""
        rejoining = payload["requester"]
        shard = payload["shard"]
        generation = payload["generation"]
        if self._rejoin_epoch.get(rejoining, 0) != generation:
            return
        member = self.router.group_for(shard).member(node_id)
        if (not member.node.alive or not member.synced
                or node_id in self._catching_up):
            return  # cannot serve a seed we do not fully hold ourselves
        # Outside a delivery handler every delivered message has been
        # applied, so the donor's position is its delivery cursor.
        self._send_seed(node_id, rejoining, shard, generation,
                        upto=member.engine.next_expected - 1)

    def _on_seed(self, node_id: int, payload: Dict[str, Any]) -> None:
        """The rejoining member installs a seed and opens its delivery gate."""
        shard = payload["shard"]
        key = (node_id, shard)
        if key not in self._awaiting_seed:
            return  # duplicate (two donors raced); the first one won
        if self._rejoin_epoch.get(node_id, 0) != payload["generation"]:
            return  # stale seed from a rejoin a later crash voided
        manager = self.managers[node_id]
        count = 0
        for obj_id, state, version, delivered, arrived in payload["objects"]:
            handle = self.handle(obj_id)
            instance = handle.spec_class()
            instance.unmarshal_state(state)
            manager.discard(obj_id)
            manager.install(obj_id, handle.name, instance, version=version)
            self.stats.replicas_created += 1
            self.switch.seed_position(node_id, obj_id, delivered, arrived)
            self._wake_replica_waiters(node_id, obj_id)
            count += 1
        if self._txn_layer is not None and payload.get("txn"):
            self._txn_layer.install_seed(node_id, payload["txn"])
        record = self._rejoin_record(node_id)
        if record is not None:
            record.objects_reseeded += count
        self._finish_seed(node_id, shard, upto=payload["upto"])

    def _finish_seed(self, node_id: int, shard: int, upto: int) -> None:
        """Open the delivery gate: replay buffered deliveries, then flush.

        Order matters: the buffered deliveries (received between anchor and
        seed) carry the *earliest* post-``upto`` positions, so they replay
        before :meth:`GroupMember.resume_delivery` skips the cursor past
        ``upto`` and flushes anything later still parked in the engine.
        """
        key = (node_id, shard)
        self._awaiting_seed.discard(key)
        member = self._shard_members[key]
        for delivered in self._seed_buffer.pop(key, []):
            if delivered.seqno <= upto:
                continue  # covered by the seed snapshot
            member.on_deliver(delivered)
        self.router.group_for(shard).member(node_id).resume_delivery(upto)

    def _rejoin_record(self, node_id: int) -> Optional[RejoinRecord]:
        for record in reversed(self.rejoins):
            if record.node_id == node_id:
                return record
        return None

    def _hand_back_seats(self, proc: "SimProcess", recovered: int) -> int:
        """Hand primary seats back toward a rejoined heaviest writer."""
        handed = 0
        for handle in sorted(self.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            if self.directory.primary_of(obj_id) == recovered:
                continue
            if self._heaviest_writer(obj_id) != recovered:
                continue
            if self.relocate_primary(proc, handle, target=recovered):
                handed += 1
        return handed

    # -- planned drain --------------------------------------------------- #

    def drain_node(self, proc: "SimProcess", node_id: int) -> bool:
        """Evacuate every seat from ``node_id``, then retire the machine.

        The planned counterpart of crash recovery: primary seats relocate
        to the heaviest remaining writers, sequencer seats hand off after
        their queues drain, and the node leaves only once no RPC anywhere
        is still addressed to it — so a drained exit causes zero dead-peer
        failures, zero elections, and zero takeovers.  Returns ``False``
        if a drain of this node is already running.
        """
        node = self.cluster.node(node_id)
        if not node.alive:
            raise RtsError(
                f"drain_node() drains live nodes; node {node_id} is crashed "
                "(crash recovery owns dead ones)")
        if node_id in self._catching_up:
            raise RtsError(
                f"node {node_id} is still catching up from a recovery and "
                "cannot be drained yet")
        if node_id in self._draining:
            return False
        if not any(n.alive and n.node_id != node_id
                   for n in self.cluster.nodes):
            raise RtsError(
                f"cannot drain node {node_id}: it is the last live machine")
        self._draining.add(node_id)
        record = DrainRecord(node_id=node_id, started_at=self.sim.now)
        self.drains.append(record)
        try:
            for handle in sorted(self.handles(), key=lambda h: h.obj_id):
                obj_id = handle.obj_id
                if self._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                    continue
                while self.directory.primary_of(obj_id) == node_id:
                    target = self._drain_target(obj_id, node_id)
                    if target is None:
                        raise RtsError(
                            f"cannot drain node {node_id}: no full member "
                            f"left to take the primary seat of object "
                            f"{obj_id}")
                    if self.relocate_primary(proc, handle, target=target):
                        record.primary_seats_moved += 1
                        break
                    # Transient refusal (a switch still settling); retry.
                    proc.hold(self.cost_model.cpu.protocol_cost * 4)
            if self.router is not None:
                for shard in self.router.active_shards():
                    group = self.router.group_for(shard)
                    if group.sequencer_node_id != node_id:
                        continue
                    while group.sequencer.queue_depth > 0:
                        proc.hold(group.retry_timeout)
                    target = self._drain_sequencer_target(group, node_id)
                    if target is None:
                        raise RtsError(
                            f"cannot drain node {node_id}: no full member "
                            f"left to take shard {shard}'s sequencer seat")
                    group.handoff_sequencer(target, trust_old=True)
                    record.sequencer_seats_moved += 1
            self._await_node_quiesced(proc, node_id)
            node.crash()
            self.stats.nodes_drained += 1
            record.completed_at = self.sim.now
            return True
        finally:
            self._draining.discard(node_id)

    def _drain_target(self, obj_id: int, leaving: int) -> Optional[int]:
        """The heaviest-writing full member to inherit a drained seat."""
        return self._most_writes(obj_id, [
            node.node_id for node in self.cluster.nodes
            if node.node_id != leaving and self.is_full_member(node.node_id)])[0]

    def _drain_sequencer_target(self, group: "BroadcastGroup",
                                leaving: int) -> Optional[int]:
        """Lowest-id full member to inherit a drained sequencer seat."""
        candidates = [
            nid for nid, member in group.members.items()
            if member.synced and nid != leaving and self.is_full_member(nid)]
        return min(candidates) if candidates else None

    def _await_node_quiesced(self, proc: "SimProcess", node_id: int) -> None:
        """Wait until no RPC anywhere is still addressed to ``node_id``.

        After the final poll returns clean, the caller retires the node in
        the same event — no other process can slip a new call in between,
        and all new traffic routes at the relocated seats anyway.
        """
        while any(endpoint.pending_to(node_id)
                  for endpoint in self.cluster.rpc.values()):
            proc.hold(self.cost_model.cpu.protocol_cost * 4)

    # -- live scale-in (merge a broadcast group away) --------------------- #

    def remove_shard(self, proc: "SimProcess", shard: int) -> bool:
        """Merge broadcast group ``shard`` away while the cluster runs.

        The reverse of :meth:`add_shard`: the group stops accepting
        placements (retired in the router), every object it orders is
        drained onto the remaining groups with :meth:`move_shard` (the
        same epoch-stamped drain-and-switch barrier, so no write is lost
        or reordered), and once every live member has delivered the
        group's full order its sequencer retires.  Returns ``False`` when
        the shard is already retired or a rejoin catch-up is in progress.
        """
        router = self._ensure_router()
        if not 0 <= shard < router.num_shards:
            raise ConfigurationError(
                f"cannot remove shard {shard}: only {router.num_shards} "
                "shards exist")
        if shard in router.retired:
            return False  # idempotent: a second remove is a no-op
        if router.num_active_shards <= 1:
            raise ConfigurationError("cannot remove the last active shard")
        if self._catching_up:
            return False  # a rejoin seed is computed against current routes
        # Retire first: placements and planner moves stop targeting the
        # group immediately, so the evacuation below cannot race new
        # arrivals (already-assigned objects keep their recorded shard).
        router.retire_shard(shard)
        evacuees = sorted(
            handle.obj_id for handle in self.handles()
            if router.assigned_shard(handle.obj_id) == shard)
        destinations = router.active_shards()
        for index, obj_id in enumerate(evacuees):
            handle = self.handle(obj_id)
            dest = destinations[index % len(destinations)]
            attempts = 0
            while router.assigned_shard(obj_id) == shard:
                if self.move_shard(proc, handle, dest):
                    break
                attempts += 1
                if attempts > 256:
                    raise RtsError(
                        f"cannot evacuate object {obj_id} off retiring "
                        f"shard {shard}: moves keep being refused")
                proc.hold(self.cost_model.cpu.protocol_cost * 4)
        group = router.group_for(shard)
        self._await_group_drained(proc, group)
        group.sequencer.retire()
        self.stats.shards_removed += 1
        self.removed_shards.append(shard)
        return True

    def _await_group_drained(self, proc: "SimProcess",
                             group: "BroadcastGroup") -> None:
        """Wait until a group's order is fully served and fully delivered."""
        def drained() -> bool:
            if group.sequencer.queue_depth > 0:
                return False
            highest = group.sequencer.highest_assigned
            return all(
                member.engine.next_expected > highest
                for member in group.members.values()
                if member.node.alive and member.synced)
        while not drained():
            proc.hold(group.retry_timeout)

    # -- the background rebalancing controller --------------------------- #

    def _maybe_start_rebalancer(self) -> None:
        """(Re)start the controller loop when write traffic flows.

        The controller is armed by the first broadcast write (and re-armed
        by the first write after it went quiet), not at construction: a
        long, write-free setup phase must not run its quiet-round budget
        down before the workload even starts.
        """
        if self._rebalancer_active:
            return
        # The controller must live on a machine that can actually broadcast
        # the switches; if its host dies later, the loop exits and the next
        # write re-arms a controller on a surviving node.
        host = next((node for node in self.cluster.nodes if node.alive), None)
        if host is None:
            return
        self._rebalancer_active = True
        host.kernel.spawn_thread(self._rebalance_body,
                                 name="shard-rebalancer")

    def _rebalance_body(self) -> None:
        """Periodic plan-and-move rounds over the router's load windows.

        Each round: optionally grow the group set toward ``grow_to``, ask
        the planner for moves off the hottest shard, execute them, and
        reset the load window.  The loop exits after ``quiet_rounds``
        consecutive rounds without a single new write anywhere (so a
        drained workload lets the simulation terminate); fresh traffic
        re-arms it.
        """
        proc = self.sim.current_process
        host = self._node_of(proc)
        params = self.rebalance
        planner = RebalancePlanner(self.router, imbalance=params.imbalance,
                                   min_writes=params.min_writes,
                                   max_moves=params.max_moves,
                                   queue_weight=params.queue_weight,
                                   byte_weight=params.byte_weight,
                                   exclude=self._in_move_cooldown)
        try:
            quiet = 0
            last_total = self._total_shard_writes()
            while quiet < params.quiet_rounds:
                proc.hold(params.interval)
                if not host.alive:
                    # A dead node cannot broadcast switches; bow out so the
                    # next write re-arms the controller on a live machine.
                    return
                total = self._total_shard_writes()
                if total == last_total:
                    quiet += 1
                    continue
                last_total = total
                quiet = 0
                live = sum(1 for n in self.cluster.nodes if n.alive)
                if (params.grow_to is not None
                        and self.router.num_active_shards
                        < min(params.grow_to, live)):
                    # Never outgrow the machines: every group needs a
                    # sequencer seat on a live node.
                    self.add_shard()
                elif (params.shrink_to is not None
                        and self.router.num_active_shards > params.shrink_to
                        and not self._catching_up):
                    idle = self._coolest_idle_shard(params)
                    if idle is not None:
                        # At most one merge per round: scale-in is the
                        # expensive direction (a full drain-and-switch per
                        # evacuated object) and the next window re-earns it.
                        self.remove_shard(proc, idle)
                moves = planner.plan()
                for move in moves:
                    self.move_shard(proc, self.handle(move.obj_id), move.dst)
                if moves:
                    # The evidence behind these moves is spent; the next
                    # decision must re-earn itself on a fresh window.  (No
                    # reset on quiet rounds: the window keeps accumulating
                    # until there is enough traffic to decide on.)
                    self.router.reset_window()
                    # Moves take virtual time; re-read the baseline so a
                    # round spent moving does not look like fresh traffic.
                    last_total = self._total_shard_writes()
        finally:
            self._rebalancer_active = False

    def _coolest_idle_shard(self, params: "RebalanceParams") -> Optional[int]:
        """The active shard to merge away, or ``None`` if none is idle.

        Only a shard whose window load is at or below ``shrink_below``
        qualifies: merging a busy group would stuff its traffic onto the
        survivors and immediately re-trigger growth.
        """
        active = self.router.active_shards()
        if len(active) <= 1:
            return None
        loads = self.router.window_loads()
        coolest = min(active, key=lambda s: (loads.get(s, 0), s))
        if loads.get(coolest, 0) > params.shrink_below:
            return None
        return coolest

    def _in_move_cooldown(self, obj_id: int) -> bool:
        """Churn damping: an object the controller moved less than
        ``rebalance.cooldown`` virtual seconds ago stays put, so
        near-balanced load stops shuffling the same object between groups
        (each move costs a drain-and-switch in two total orders)."""
        if self.rebalance is None:
            return False
        last = self._last_moved_at.get(obj_id)
        return last is not None and self.sim.now - last < self.rebalance.cooldown

    def _total_shard_writes(self) -> int:
        return sum(stats.writes for stats in self.router.shard_stats.values())

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def object_summary(self) -> Dict[str, Dict[str, Any]]:
        summary = super().object_summary()
        for handle in self.handles():
            row = summary[handle.name]
            row["policy"] = self._policy_by_obj[handle.obj_id]
            if handle.obj_id in self._adaptive_by_obj:
                row["adaptive"] = True
            # The shard column is the router's *current* view, so it stays
            # consistent across shard moves and policy migrations alike.
            shard = (self.router.assigned_shard(handle.obj_id)
                     if self.router is not None else None)
            if shard is not None and self.num_shards > 1:
                row["shard"] = shard
        return summary

    def downstream_queue_depth(self) -> int:
        """Deepest active-shard sequencer queue — the gateway shed signal.

        The same depth the write batcher's flow control watches
        (:meth:`_WriteBatcher._backpressured`), taken as a max over active
        shards so one congested shard is enough to arm edge shedding.
        """
        router = self.router
        if router is None:
            return 0
        return max((router.group_for(shard).sequencer.queue_depth
                    for shard in router.active_shards()), default=0)

    def read_write_summary(self) -> Dict[str, Any]:
        summary = super().read_write_summary()
        if self.router is not None and (self.num_shards > 1
                                        or self.batching is not None):
            summary["sharding"] = self.router.summary()
            if self.batching is not None:
                summary["batching"] = {
                    "max_batch": self.batching.max_batch,
                    "flush_delay": self.batching.flush_delay,
                }
        if self.stats.migrations:
            summary["migrations"] = {
                "total": self.stats.migrations,
                "to_primary": self.stats.migrations_to_primary,
                "to_broadcast": self.stats.migrations_to_broadcast,
                "log": [(m.name, m.target, m.primary_node)
                        for m in self.migrations],
            }
        if (self.stats.shard_moves or self.stats.shards_added
                or self.stats.primary_relocations):
            summary["rebalancing"] = {
                "moves": self.stats.shard_moves,
                "shards_added": self.stats.shards_added,
                "primary_relocations": self.stats.primary_relocations,
                "placement_epoch": (self.router.placement_epoch
                                    if self.router is not None else 0),
                "log": [(m.name, m.src, m.dst) for m in self.shard_moves],
            }
        if self.stats.flow_control_holds:
            summary["flow_control_holds"] = self.stats.flow_control_holds
        if self.stats.primary_recoveries:
            windows = [r.window for r in self.recoveries
                       if r.window is not None]
            summary["recovery"] = {
                "primary_recoveries": self.stats.primary_recoveries,
                "deduplicated_writes": self.stats.deduplicated_writes,
                "max_window": round(max(windows), 9) if windows else None,
                "log": [(r.name, r.old_primary, r.new_primary,
                         "snapshot" if r.from_snapshot else "copy")
                        for r in self.recoveries],
            }
        if (self.stats.node_rejoins or self.stats.nodes_drained
                or self.stats.shards_removed):
            windows = [r.window for r in self.rejoins if r.window is not None]
            summary["elasticity"] = {
                "node_rejoins": self.stats.node_rejoins,
                "nodes_drained": self.stats.nodes_drained,
                "shards_removed": self.stats.shards_removed,
                "seats_handed_back": self.stats.seats_handed_back,
                "objects_reseeded": sum(r.objects_reseeded
                                        for r in self.rejoins),
                "max_rejoin_window": (round(max(windows), 9)
                                      if windows else None),
                "rejoin_log": [
                    (r.node_id, r.objects_reseeded, r.seats_handed_back)
                    for r in self.rejoins if r.completed_at is not None],
                "drain_log": [
                    (d.node_id, d.primary_seats_moved,
                     d.sequencer_seats_moved)
                    for d in self.drains if d.completed_at is not None],
                "removed_shards": list(self.removed_shards),
            }
        if self.stats.txn_commits or self.stats.txn_aborts:
            summary["transactions"] = {
                "commits": self.stats.txn_commits,
                "aborts": self.stats.txn_aborts,
                "same_shard_commits": self.stats.txn_same_shard_commits,
                "cross_shard_commits": self.stats.txn_cross_shard_commits,
                "conflict_retries": self.stats.txn_retries,
                "deferred_writes": self.stats.txn_deferred_writes,
                "recoveries": self.stats.txn_recoveries,
            }
        return summary
