"""The unified runtime: one class hosting both of the paper's mechanisms.

:class:`HybridRts` keeps construction and the lazy wiring, object creation
and invocation, transactions' entry point, and the broadcast mechanism's
read and write path (a member's delivery and ordered apply are
:class:`~repro.rts.member.ShardMember`'s).  Everything else runs in role
objects under ``repro.rts``, each behind a ``typing.Protocol`` naming what
it reads and calls of the runtime: see the module map in
``docs/ARCHITECTURE.md#rts-shared-objects-under-per-object-policies``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Type

from ..amoeba.message import estimate_size
from ..config import params_from
from ..errors import ConfigurationError, RtsError
from .base import CallSite, ObjectHandle, RuntimeSystem
from .batching import WriteBatcher
from .consistency import HistoryRecorder
from .member import ShardMember
from .membership import Membership
from .object_model import RETRY, ObjectSpec
from .placement import Placement
from .policy import (
    FIXED_POLICIES,
    MECHANISM_BROADCAST,
    MECHANISM_PRIMARY,
    AdaptivePolicy,
    BroadcastReplicated,
    management_policy,
)
from .primary import PrimaryCopy
from .records import summarize
from .sharding import BatchingParams, RebalanceParams, ShardRouter
from .stats import AccessStats
from .switch import KIND_SWITCH, MIGRATED, SwitchEngine, _PendingWrite
from .takeover import Takeover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..sim.process import SimProcess


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
        self.batching = params_from(BatchingParams, batching)
        self.rebalance = params_from(RebalanceParams, rebalance)
        self.router: Optional[ShardRouter] = None
        #: Shard-0 group under the classic attribute name (set with the router).
        self.group: Optional["BroadcastGroup"] = None
        self._batchers: Dict[Tuple[int, int], WriteBatcher] = {}
        #: (node_id, shard) -> that member's end of the shard's order.
        self._shard_members: Dict[Tuple[int, int], ShardMember] = {}
        self._invocation_ids = itertools.count(1)
        self._pending: Dict[int, _PendingWrite] = {}
        #: (node_id, obj_id) -> [SimProcess, ...] waiting for a local replica.
        self._replica_waiters: Dict[Tuple[int, int], List["SimProcess"]] = {}

        # -- per-object policy state ------------------------------------ #
        #: obj_id -> name of the fixed policy currently managing the object.
        self._policy_by_obj: Dict[int, str] = {}
        #: obj_id -> adaptive controller (objects created adaptive only).
        self._adaptive_by_obj: Dict[int, AdaptivePolicy] = {}
        #: obj_id -> cluster-wide access window driving adaptive decisions.
        self._obj_access: Dict[int, AccessStats] = {}
        self._created_on: Dict[int, int] = {}
        #: Lazily created transaction layer (first transact() call builds
        #: it); while None, every hook is skipped and the runtime behaves
        #: byte-identically to one without the layer.
        self._txn_layer: Optional[Any] = None

        # -- the roles, and their public state ------------------------- #
        #: Every switch's state: epochs, object lifecycles, member cursors.
        self.switch = SwitchEngine(self)
        self.primary = PrimaryCopy(self)
        self.takeover = Takeover(self)
        self.membership = Membership(self)
        self.placement = Placement(self)
        self.directory = self.primary.directory
        self.replication = self.primary.replication
        #: Default coherence protocol (what ``"primary"`` resolves to).
        self.protocol = protocol
        self.recoveries = self.takeover.recoveries
        self.rejoins = self.membership.rejoins
        self.drains = self.membership.drains
        self.migrations = self.placement.migrations
        self.shard_moves = self.placement.shard_moves
        self.relocations = self.placement.relocations
        self.removed_shards = self.placement.removed_shards
        #: Payload kind -> what a member does on delivering it (``"op"``
        #: goes straight to ``ShardMember.apply``).  The transaction layer's
        #: kinds join when the layer is built.
        self._deliver_kinds: Dict[str, Callable[..., None]] = {
            "batch": ShardMember.deliver_batch,
            "create": ShardMember.deliver_create,
            "rejoin": self.membership.apply_rejoin,
            KIND_SWITCH: self.switch.apply,
        }
        self._services_installed = False
        self._recovery_wired = False

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
            member = ShardMember(self, node, shard)
            self._shard_members[member.key] = member
            group.set_delivery_handler(node.node_id, member.on_deliver)

    def _ensure_primary_services(self) -> None:
        """Register the point-to-point handlers and RPC services once."""
        if self._services_installed:
            return
        self._services_installed = True
        self.primary.install_services()
        self._wire_recovery()

    def _wire_recovery(self) -> None:
        """Register the rejoin listeners and seed handlers once per cluster."""
        if self._recovery_wired:
            return
        self._recovery_wired = True
        self.membership.install_listeners()

    # ------------------------------------------------------------------ #
    # Policy bookkeeping
    # ------------------------------------------------------------------ #

    def policy_of(self, handle: ObjectHandle) -> str:
        """Name of the fixed policy currently managing ``handle``."""
        return self._policy_by_obj[handle.obj_id]

    def _mechanism_of(self, obj_id: int) -> str:
        return FIXED_POLICIES[self._policy_by_obj[obj_id]].mechanism

    @property
    def num_shards(self) -> int:
        return self.router.num_shards if self.router is not None else 1

    def shard_of(self, handle: ObjectHandle) -> int:
        """The shard (and thus broadcast group) currently ordering ``handle``.

        This is the router's live view: after a :meth:`move_shard` it names
        the destination group, not the creation-time placement.
        """
        return self._ensure_router().assign(handle.obj_id, handle.name)

    def _batcher(self, node: "Node", shard: int) -> WriteBatcher:
        key = (node.node_id, shard)
        batcher = self._batchers.get(key)
        if batcher is None:
            batcher = WriteBatcher(self, node, self.router.group_for(shard),
                                   shard, self.batching)
            self._batchers[key] = batcher
        return batcher

    def await_delivery(self, proc: "SimProcess", send: Callable[..., Any],
                       payload: Tuple[Any, ...], size: int,
                       pending: Optional[_PendingWrite] = None) -> Any:
        """Send ``payload + (invocation_id,)`` with ``send`` and block until
        this member delivers it; returns what the delivery resolved it with.

        ``pending`` (default: one that only wakes ``proc``) is registered
        only after the (possibly blocking) flush: a switch may release
        pending writes of its object early, and that wake must never race a
        wait the process is parked in for some other reason.
        """
        invocation_id = next(self._invocation_ids)
        proc.flush()
        self._pending[invocation_id] = (
            pending if pending is not None else _PendingWrite(proc=proc))
        send(payload + (invocation_id,), size=size)
        result = proc.suspend()
        self._pending.pop(invocation_id, None)
        return result

    def back_off(self, proc: "SimProcess") -> None:
        """Wait a little before retrying what a busy or moving seat refused."""
        proc.hold(self.cost_model.cpu.protocol_cost * 4)

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
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        proc.absorb_overhead(node.drain_overhead())
        self.await_delivery(
            proc, self.router.group_for(shard).member(node.node_id).broadcast,
            ("create", handle.obj_id, spec_class, args, kwargs or {}),
            max(32, estimate_size(args) + estimate_size(kwargs or {})))

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
        self.primary.commit_record(handle.obj_id, node.node_id)
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        if self.replicate_everywhere:
            for other in self.cluster.nodes:
                if other.node_id != node.node_id:
                    self.replicate_to(handle, other.node_id)

    def replicate_to(self, handle: ObjectHandle, node_id: int) -> None:
        """Eagerly install a secondary copy on ``node_id`` (no cost charged)."""
        seat = self.directory.primary_of(handle.obj_id)
        source = self.managers[seat].get(handle.obj_id)
        manager = self.managers[node_id]
        if manager.has_valid_copy(handle.obj_id):
            return
        manager.discard(handle.obj_id)
        manager.install(handle.obj_id, handle.name, handle.spec_class()).restore(
            source.snapshot(), is_primary=False)
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
                        self.router.note_write(obj_id, handle.name)
                        wire_size = max(16, estimate_size(args) + 16 + estimate_size(kwargs or {}))
                        shard_write_noted = True
                        if self.rebalance is not None:
                            self.placement.maybe_start_rebalancer()
                    result = self._broadcast_write(proc, node, handle, op,
                                                   args, kwargs, wire_size)
                else:
                    result = self._broadcast_read(proc, site, obj_id, args,
                                                  kwargs)
            else:
                proc.absorb_overhead(node.drain_overhead())
                if op.is_write:
                    result = self.primary.write(proc, nid, handle, op, args,
                                                kwargs)
                else:
                    result = self.primary.read(proc, nid, handle, op, args,
                                               kwargs)
                if result is not MIGRATED and self.dynamic_replication:
                    self.primary.apply_replication_policy(proc, nid, handle)
            if result is not MIGRATED:
                break
            # The object moved to the other mechanism while this invocation
            # was in flight; re-route it under the new policy.

        controller = self._adaptive_by_obj.get(obj_id)
        if controller is not None:
            self.placement.adaptive_check(proc, handle, controller, op.is_write)
        return result

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
                         handle: ObjectHandle, op, args, kwargs,
                         size: int) -> Any:
        """Broadcast the write (directly or batched) of ``size`` wire bytes
        and await local apply."""
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
            if self._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                return MIGRATED
            if not manager.has_valid_copy(obj_id):
                self._await_replica(proc, node.node_id, obj_id)
                continue
            proc.absorb_overhead(node.drain_overhead())
            self.stats.broadcast_writes += 1
            # A switch of the object releases this pending write early.
            send = (self._batcher(node, shard).enqueue
                    if self.batching is not None
                    else self.router.group_for(shard).member(node.node_id).broadcast)
            result = self.await_delivery(
                proc, send, ("op", obj_id, op.name, args, kwargs or {}, epoch), size,
                _PendingWrite(proc=proc, obj_id=obj_id, origin=node.node_id,
                              epoch=epoch))
            proc.absorb_overhead(node.drain_overhead())
            if result is MIGRATED:
                return MIGRATED
            if result is not RETRY:
                return result
            # Guard rejected the operation everywhere; wait and retry.
            self.stats.guard_retries += 1
            self._wait_for_change(proc, node.node_id, obj_id)

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
    # Reconfiguration and elasticity (bodies in placement and membership)
    # ------------------------------------------------------------------ #

    def migrate(self, proc: "SimProcess", handle: ObjectHandle,
                policy: Any, primary: Optional[int] = None) -> bool:
        """Move ``handle`` under ``policy`` while the cluster runs."""
        return self.placement.migrate(proc, handle, policy, primary)

    def move_shard(self, proc: "SimProcess", handle: ObjectHandle,
                   new_shard: int) -> bool:
        """Move ``handle`` onto broadcast group ``new_shard`` while it runs."""
        return self.placement.move_shard(proc, handle, new_shard)

    def relocate_primary(self, proc: "SimProcess", handle: ObjectHandle,
                         target: Optional[int] = None) -> bool:
        """Move a primary-copy object's primary seat to ``target``."""
        return self.placement.relocate_primary(proc, handle, target)

    def add_shard(self, sequencer_node_id: Optional[int] = None) -> int:
        """Add a broadcast group to the running cluster; returns its shard."""
        return self.placement.add_shard(sequencer_node_id)

    def remove_shard(self, proc: "SimProcess", shard: int) -> bool:
        """Merge broadcast group ``shard`` away while the cluster runs."""
        return self.placement.remove_shard(proc, shard)

    def drain_node(self, proc: "SimProcess", node_id: int) -> bool:
        """Evacuate every seat from ``node_id``, then retire the machine."""
        return self.membership.drain_node(proc, node_id)

    def is_caught_up(self, node_id: int) -> bool:
        """Has ``node_id`` completed its rejoin catch-up (or never needed one)?"""
        return self.membership.is_caught_up(node_id)

    def is_full_member(self, node_id: int) -> bool:
        """Alive, caught up and staying: may ``node_id`` be handed a seat?"""
        return self.membership.is_full_member(node_id)

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
        (:class:`~repro.rts.batching.WriteBatcher`), taken as a max over
        active shards so one congested shard is enough to arm edge shedding.
        """
        router = self.router
        if router is None:
            return 0
        return max((router.group_for(shard).sequencer.queue_depth
                    for shard in router.active_shards()), default=0)

    def read_write_summary(self) -> Dict[str, Any]:
        return summarize(self, super().read_write_summary())
