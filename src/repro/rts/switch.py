"""The switch engine: a reconfiguration is one more write in the object's order.

Policy migration, primary-seat relocation, crash takeover and the two legs of
a cross-group shard move are one mechanism.  The initiator passes the
admission gate, opens the object's next **epoch**, rewrites the global
routing (policy, directory, shard route) and broadcasts one
:class:`SwitchRecord` through the object's shard.  Total order delivers it
after exactly the same writes at every member, so the record *is* the switch
point: what was stamped with an older epoch and sequenced behind it is
dropped identically everywhere and re-issued, what outran it is parked on the
member's cursor until it lands, and no write is applied on both sides of it —
with every replica passing through the switch state, that is why sequential
consistency holds across a switch.  A record in flight across a sequencer
crash is retried through the election like any other broadcast.
``docs/ARCHITECTURE.md`` ("The switch") tabulates the four uses.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Collection, Dict, Iterator, List,
                    Optional, Protocol, Tuple)

from ..amoeba.message import estimate_size
from ..amoeba.rpc import RpcReply
from ..errors import RpcPeerDeadError, RtsError
from .p2p.fanout import CURRENT, FUTURE, LEG_ARRIVE, STALE, SwitchRecord, place_epoch
from .policy import MECHANISM_PRIMARY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.protocol import DeliveredMessage
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..config import CostModel
    from ..sim.process import SimProcess
    from .base import ObjectHandle, RtsStats
    from .manager import ObjectManager
    from .p2p.directory import ObjectDirectory
    from .sharding import ShardRouter

#: Sentinel returned by a mechanism path when a switch overtook the
#: invocation; the unified dispatch loop re-routes the operation.
MIGRATED = object()

#: The one ordered payload kind: ``("switch", SwitchRecord, invocation_id)``.
KIND_SWITCH = "switch"
#: Freeze-and-snapshot service of a primary (state leaves it in a record).
PORT_MIGRATE = "orca.obj.migrate"

#: Lifecycle phases besides :class:`Preparing`.
STABLE, IN_FLIGHT = "stable", "in-flight"


class Member(Protocol):
    """One machine's end of one shard's order, as a delivery handler sees it."""

    node_id: int
    key: Tuple[int, int]
    node: "Node"
    manager: "ObjectManager"


class SwitchedSeats(Protocol):
    """The primary-copy state a switch rewrites and replays into."""

    last_committed: Dict[int, Tuple[Any, int, Dict]]

    def on_coherence(self, nid: int, kind: str, payload: Dict[str, Any]) -> None: ...
    def drop_stale(self, nid: int, payload: Dict[str, Any]) -> None: ...


class CatchingUp(Protocol):
    #: Nodes whose rejoin catch-up is still running.
    catching_up: Collection[int]


class SwitchRuntime(Protocol):
    """What :class:`SwitchEngine` reads and calls of the runtime."""

    cluster: "Cluster"
    cost_model: "CostModel"
    managers: Dict[int, "ObjectManager"]
    stats: "RtsStats"
    router: Optional["ShardRouter"]
    directory: "ObjectDirectory"
    primary: SwitchedSeats
    membership: CatchingUp
    _policy_by_obj: Dict[int, str]
    _pending: Dict[int, "_PendingWrite"]
    _txn_layer: Optional[Any]

    def handle(self, obj_id: int) -> "ObjectHandle": ...
    def shard_of(self, handle: "ObjectHandle") -> int: ...
    def _mechanism_of(self, obj_id: int) -> str: ...
    def _apply_one(self, node_id: int, manager: "ObjectManager", node: "Node",
                   obj_id: int, *write: Any) -> None: ...
    def _resolve(self, invocation_id: int, result: Any) -> None: ...
    def _wake_replica_waiters(self, node_id: int, obj_id: int) -> None: ...
    def await_delivery(self, proc: "SimProcess", send: Callable[..., Any],
                       payload: Tuple[Any, ...], size: int,
                       pending: Optional["_PendingWrite"] = None) -> Any: ...


@dataclass
class _PendingWrite:
    """An invocation waiting for its own broadcast to come back (a write also
    records its object and epoch, so a switch can release it early)."""

    proc: "SimProcess"
    resolved: bool = False
    obj_id: Optional[int] = None
    origin: Optional[int] = None
    epoch: int = 0


@dataclass(eq=False)
class Preparing:
    """Phase of an admitted switch that has not broadcast yet (it may be
    suspended freezing the primary).  The instance is the admission: whoever
    replaces it — a crash of ``initiator``, a takeover — has revoked it."""

    initiator: int


@dataclass
class _Lifecycle:
    """Cluster-wide switch state of one object."""

    #: Number of switches broadcast for the object so far.
    epoch: int = 0
    #: Epoch of its latest shard move (settled only once the arrive leg landed).
    arrive_epoch: int = 0
    phase: Any = STABLE
    #: Frozen at its primary for a state transfer: writes bounce and retry.
    frozen: bool = False


@dataclass
class _Cursor:
    """One member's position in one object's switches, and what is parked there."""

    #: Epoch delivered up to (drain legs), and highest arrive leg seen.
    delivered: int = 0
    arrived: int = 0
    #: Writes of a newer epoch, in their own order's positions.
    future_writes: List[Tuple[Any, ...]] = field(default_factory=list)
    #: Coherence messages ``(kind, payload)`` of a regime not reached yet.
    deferred: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    #: Processes gating on this member's delivery (a primary's first write).
    waiters: List["SimProcess"] = field(default_factory=list)
    #: Armed lag-probe timer (see :meth:`SwitchEngine.arm_lag_probe`).
    lag_probe: Optional[int] = None


class SwitchEngine:
    """Admission, commit and member-side apply of every switch of one runtime."""

    #: Re-probe budget of a member lagging behind a possibly lost switch.
    LAG_PROBE_LIMIT = 12

    def __init__(self, rts: SwitchRuntime) -> None:
        self.rts = rts
        self.objects: Dict[int, _Lifecycle] = defaultdict(_Lifecycle)
        #: Per node (ids are dense), obj_id -> cursor: a machine's loss is one
        #: table's.  Hot paths probe with ``.get`` (never switched: no cursor).
        self.cursors: List[Dict[int, _Cursor]] = [
            defaultdict(_Cursor) for _ in rts.cluster.nodes]

    # -- questions -------------------------------------------------------- #

    def epoch_of(self, obj_id: int) -> int:
        """The epoch new writes of ``obj_id`` are stamped with."""
        return self.objects[obj_id].epoch

    def classify(self, node_id: int, obj_id: int, epoch: int) -> int:
        """An ``epoch``-stamped ordered record at ``node_id``: ``STALE``
        (drop), ``CURRENT`` (apply) or ``FUTURE`` (it outran its switch: park)."""
        cursor = self.cursors[node_id].get(obj_id)
        return place_epoch(epoch, cursor.delivered if cursor is not None else 0)

    def settled(self, obj_id: int) -> bool:
        """Has every live member delivered the object's latest switch — for
        a shard move the source drain *and* the destination arrival, so
        back-to-back moves never leave two epochs in flight?"""
        life = self.objects[obj_id]
        for node in self.rts.cluster.nodes:
            if node.alive:
                cursor = self.cursors[node.node_id][obj_id]
                if (cursor.delivered < life.epoch
                        or cursor.arrived < life.arrive_epoch):
                    return False
        if life.phase is IN_FLIGHT:
            life.phase = STABLE
        return True

    def in_flight(self, obj_id: int) -> bool:
        """Is a broadcast switch of ``obj_id`` still undelivered somewhere?"""
        return self.objects[obj_id].phase is IN_FLIGHT and not self.settled(obj_id)

    def is_stable(self, obj_id: int) -> bool:
        """No switch of ``obj_id`` is preparing (or frozen) or in flight."""
        return not (isinstance(self.objects[obj_id].phase, Preparing)
                    or self.in_flight(obj_id))

    # -- initiator side ---------------------------------------------------- #

    @contextmanager
    def admit(self, obj_id: int, initiator: int,
              pause_for_catch_up: bool = False) -> Iterator[bool]:
        """The admission gate of every planned switch; yields whether it may
        proceed.  It refuses (cleanly — callers already retry) while another
        switch of the object is preparing (its freeze can suspend with the
        epoch still old) or still being delivered somewhere; with
        ``pause_for_catch_up``, while a rejoin seed is being computed against
        the current policies, epochs and routes (switching under it could
        strand the member on the wrong side or lose it the object); and while
        a live transaction names the object (its prepares and seat locks
        assume a stable mechanism, shard and seat).  Leaving the block before
        the broadcast lifts the freeze and returns the object to stable."""
        rts = self.rts
        life = self.objects[obj_id]
        if (not self.is_stable(obj_id)
                or (pause_for_catch_up and rts.membership.catching_up)
                or (rts._txn_layer is not None
                    and rts._txn_layer.pins(obj_id))):
            yield False
            return
        mine = life.phase = Preparing(initiator)
        try:
            yield True
        finally:
            if life.phase is mine:
                life.phase, life.frozen = STABLE, False

    def snapshot_from_primary(self, proc: "SimProcess", node: "Node",
                              obj_id: int) -> Optional[Tuple[Any, int, Dict]]:
        """Freeze the object at its primary and return its replica's
        snapshot, or ``None`` to abort: the primary died mid-freeze (the
        takeover recovers the object), or the admission was revoked — a
        takeover reseated the object and its successor may hold writes this
        snapshot predates, which broadcasting it (a younger epoch) would
        erase."""
        life = self.objects[obj_id]
        mine = life.phase
        primary = self.rts.directory.primary_of(obj_id)
        if node.node_id == primary:
            reply = self.freeze_and_snapshot(proc, primary, obj_id)
            snapshot = reply.payload if reply is not None else None
        else:
            try:
                snapshot = self.rts.cluster.rpc_for(node.node_id).call(
                    proc, primary, PORT_MIGRATE, payload={"obj_id": obj_id},
                    size=24)
            except RpcPeerDeadError:
                return None
        return snapshot if life.phase is mine else None

    def freeze_and_snapshot(self, proc: "SimProcess", primary: int,
                            obj_id: int) -> Optional[RpcReply]:
        """Freeze the primary, drain in-flight writes, snapshot the replica —
        as the reply of the ``PORT_MIGRATE`` service this is.

        The freeze comes first, so writes arriving during the drain bounce
        (``MARKER_MIGRATING``) instead of starting new coherence rounds.  The
        drain waits on the in-flight commit *count*, not just the replica
        lock: concurrent two-phase rounds share one lock bit, so the first's
        unlock can expose an unlocked replica while a second still awaits
        acks — a snapshot there would miss a committed write.
        """
        rts = self.rts
        if proc is None:
            raise RtsError("migration freeze must run in a blocking context")
        self.await_delivered(proc, primary, obj_id)
        life = self.objects[obj_id]
        if not isinstance(life.phase, Preparing):
            # The initiator died (or a takeover overrode it) before the
            # freeze landed: nobody is left to lift a freeze set now.
            return None
        life.frozen = True
        replica = rts.managers[primary].get(obj_id)
        while replica.locked or replica.inflight:
            if replica.locked:
                replica.on_next_change(lambda p=proc: p.wake())
                proc.suspend()
            else:
                proc.hold(rts.cost_model.cpu.protocol_cost)
        return RpcReply(payload=replica.snapshot(),
                        size=replica.instance.state_size() + 16)

    def advance(self, obj_id: int, arrive: bool = False) -> int:
        """Open the object's next epoch (the switch is in flight from here);
        ``arrive`` makes settlement wait for a shard move's second leg."""
        life = self.objects[obj_id]
        life.epoch += 1
        if arrive:
            life.arrive_epoch = life.epoch
        life.phase, life.frozen = IN_FLIGHT, False
        return life.epoch

    def reseat(self, proc: "SimProcess", node: "Node", obj_id: int, seat: int,
               snapshot: Tuple[Any, int, Dict],
               scope: Tuple[int, ...]) -> None:
        """Commit a primary seat on ``seat``: new epoch, directory and commit
        record rewritten, snapshot broadcast to ``scope``, local delivery
        awaited.  The new primary refuses writes until it has delivered the
        record itself, so every write lands exactly once, on one primary."""
        rts = self.rts
        epoch = self.advance(obj_id)
        rts.directory.seat(obj_id, seat, scope)
        # The snapshot is the committed state as of the seat change: a crash
        # of the new seat before its first commit still recovers the object.
        rts.primary.last_committed[obj_id] = snapshot
        self.broadcast(
            proc, node,
            SwitchRecord(obj_id, epoch, rts._policy_by_obj[obj_id], seat,
                         snapshot, scope),
            size=32 + estimate_size(snapshot[0]) + estimate_size(snapshot[2]))

    def broadcast(self, proc: "SimProcess", node: "Node", record: SwitchRecord,
                  size: int = 64, shard: Optional[int] = None) -> None:
        """Send ``record`` through the object's shard (``shard`` overrides:
        a move's drain leg rides the *source* group after the router already
        points at the destination) and await local delivery."""
        rts = self.rts
        if shard is None:
            shard = rts.shard_of(rts.handle(record.obj_id))
        rts.router.shard_stats[shard].note_migration()
        proc.advance(rts.cost_model.cpu.operation_dispatch_cost)
        proc.absorb_overhead(node.drain_overhead())
        rts.await_delivery(
            proc, rts.router.group_for(shard).member(node.node_id).broadcast,
            (KIND_SWITCH, record), size)
        proc.absorb_overhead(node.drain_overhead())

    # -- member side (every member, in the shard's total order) ------------ #

    def apply(self, member: Member,
              delivered: "DeliveredMessage") -> None:
        """One member's delivery of one switch record."""
        _, record, invocation_id = delivered.payload
        rts = self.rts
        node_id, obj_id, epoch = member.node_id, record.obj_id, record.epoch
        cursor = self.cursors[node_id][obj_id]
        if record.leg == LEG_ARRIVE:
            member.node.charge_overhead(
                rts.cost_model.cpu.operation_dispatch_cost)
            cursor.arrived = max(cursor.arrived, epoch)
        elif place_epoch(epoch, cursor.delivered) == FUTURE:
            cursor.delivered = epoch
            member.node.charge_overhead(
                rts.cost_model.cpu.operation_dispatch_cost)
            self._install(node_id, record)
            # Writes of the new epoch that outran the record apply first, on
            # the state every pre-switch write has already reached ...
            for entry in self.take_future_writes(node_id, obj_id):
                if entry[4] > epoch:  # its own switch is still to come
                    cursor.future_writes.append(entry)
                else:
                    rts._apply_one(node_id, member.manager, member.node,
                                   obj_id, *entry)
            # ... then the coherence traffic that raced ahead of it.
            deferred, cursor.deferred = cursor.deferred, []
            for kind, payload in deferred:
                if (payload.get("epoch", 0) >= epoch
                        and rts._mechanism_of(obj_id) == MECHANISM_PRIMARY):
                    rts.primary.on_coherence(node_id, kind, payload)
                else:
                    # The record also superseded the message's regime (a
                    # takeover on top of the crash that raced it, or the
                    # object left primary-copy management): drop and ack.
                    rts.primary.drop_stale(node_id, payload)
            if rts._txn_layer is not None:
                # A transaction record that outran this member's epoch sits
                # under a barrier lock; the switch it awaited just landed.
                rts._txn_layer.on_switch_delivered(node_id, obj_id)
            # This member's own still-pending older writes can only be
            # sequenced behind the record: release them for re-issue now.
            for pending_id, pending in list(rts._pending.items()):
                if (pending.obj_id == obj_id and pending.origin == node_id
                        and pending.epoch < epoch):
                    rts._resolve(pending_id, MIGRATED)
            waiters, cursor.waiters = cursor.waiters, []
            for waiter in waiters:
                waiter.wake()
        # A record a later one overtook here (a takeover outrunning a
        # relocation or a drain) must not regress the member, but its
        # initiator is still woken and settlement re-checked.
        if delivered.origin == node_id:
            rts._resolve(invocation_id, None)
        self.settled(obj_id)

    def _install(self, node_id: int, record: SwitchRecord) -> None:
        """Bring one member's copy to the record's agreed state."""
        rts = self.rts
        obj_id = record.obj_id
        manager = rts.managers[node_id]
        replica = manager.replicas.get(obj_id)
        if record.snapshot is None:
            # No state moves: the (identical) replicas become the regime's
            # copies, and it starts with an empty applied-write table.
            if replica is not None:
                replica.is_primary = node_id == record.primary
                replica.applied = {}
        elif record.scope is None or node_id in record.scope:
            if replica is None:
                handle = rts.handle(obj_id)
                replica = manager.install(obj_id, handle.name, handle.spec_class())
                rts.stats.replicas_created += 1
            replica.restore(record.snapshot, node_id == record.primary)
            rts._wake_replica_waiters(node_id, obj_id)
        if record.policy == "broadcast" and replica is not None:
            # Broadcast management does not use write ids at all.
            replica.applied = {}

    def await_delivered(self, proc: "SimProcess", node_id: int, obj_id: int) -> None:
        """Block until ``node_id`` has delivered the object's latest switch."""
        life = self.objects[obj_id]
        cursor = self.cursors[node_id][obj_id]
        while cursor.delivered < life.epoch:
            cursor.waiters.append(proc)
            proc.suspend()

    def take_future_writes(self, node_id: int, obj_id: int) -> List[Tuple[Any, ...]]:
        """Hand over (and forget) the writes parked at one member's cursor."""
        cursor = self.cursors[node_id][obj_id]
        writes, cursor.future_writes = cursor.future_writes, []
        return writes

    def screen(self, nid: int, kind: str, payload: Dict[str, Any]) -> int:
        """Place a coherence message against the member's cursor.

        ``STALE``: the member already delivered a later switch than the
        regime the message was issued under; the switch snapshot is the
        agreed state and an update from the dead regime would diverge it
        (every member compares alike: the drop is identical everywhere).
        ``FUTURE``: the member has not delivered the switch establishing the
        current regime, so the ordered writes it is sequenced after may be
        undelivered locally; the message is parked until it lands.
        """
        obj_id = payload["obj_id"]
        cursor = self.cursors[nid].get(obj_id)
        delivered = cursor.delivered if cursor is not None else 0
        if payload.get("epoch", 0) < delivered:
            return STALE
        if delivered >= self.objects[obj_id].epoch:
            return CURRENT
        self.cursors[nid][obj_id].deferred.append((kind, payload))
        self.arm_lag_probe(nid, obj_id)
        return FUTURE

    def arm_lag_probe(self, node_id: int, obj_id: int,
                      attempt: int = 0) -> None:
        """Schedule a recovery probe for a member with traffic parked behind
        a switch it has not delivered.

        It may lag legitimately (the switch is still being sequenced), or it
        may have *lost* the switch just when all later traffic left the
        broadcast path — the migration that very switch performed moved the
        object's writes onto the primary-copy RPC path — so nothing in-band
        will reveal the gap and the parked message, the only evidence, would
        wedge its sender forever.  The probe fires after the group's retry
        timeout, asks the member's groups for the first unseen seqno (any
        member answers from retained history; the sequencer may be dead) and
        re-arms a bounded number of times while the member still lags.
        """
        cursor = self.cursors[node_id][obj_id]
        node = self.rts.cluster.node(node_id)
        if (cursor.lag_probe is not None or not node.alive
                or self.rts.router is None):
            return
        cursor.lag_probe = node.kernel.set_timer(
            self.rts.router.group_for(0).retry_timeout, self._fire_lag_probe,
            node_id, obj_id, attempt)

    def _fire_lag_probe(self, node_id: int, obj_id: int, attempt: int) -> None:
        cursor = self.cursors[node_id][obj_id]
        cursor.lag_probe = None
        if cursor.delivered >= self.objects[obj_id].epoch:
            return  # caught up; the deferred messages already flushed
        if attempt >= self.LAG_PROBE_LIMIT:
            return  # give up: behave as before the probe existed
        # The switch may ride any group (shard moves relocate an object's
        # order), so probe them all; one for a seqno nobody has goes unanswered.
        for group in self.rts.router.groups:
            group.member(node_id).probe_gap()
        self.arm_lag_probe(node_id, obj_id, attempt + 1)

    # -- machines leaving and re-entering ---------------------------------- #

    def node_crashed(self, node_id: int) -> None:
        """A machine died: disarm its lag probes (a dead node's timers never
        fire, and a stale one would block re-arming after a recovery) and
        revoke every switch it was preparing — its process is parked for
        good, so nobody else would lift the freeze."""
        kernel = self.rts.cluster.node(node_id).kernel
        for cursor in self.cursors[node_id].values():
            if cursor.lag_probe is not None:
                kernel.cancel_timer(cursor.lag_probe)
                cursor.lag_probe = None
        for life in self.objects.values():
            if (isinstance(life.phase, Preparing)
                    and life.phase.initiator == node_id):
                life.phase, life.frozen = STABLE, False

    def wipe_node(self, node_id: int) -> None:
        """Apply a crash's loss at recovery: epoch cursors and parked traffic
        are gone (processes still gating on a cursor keep waiting on it)."""
        for cursor in self.cursors[node_id].values():
            cursor.delivered = cursor.arrived = 0
            cursor.future_writes, cursor.deferred = [], []

    def position(self, node_id: int, obj_id: int) -> Tuple[int, int]:
        """``(delivered, arrived)`` of one member, as a rejoin seed ships it."""
        cursor = self.cursors[node_id].get(obj_id)
        return (cursor.delivered, cursor.arrived) if cursor else (0, 0)

    def seed_position(self, node_id: int, obj_id: int, delivered: int,
                      arrived: int) -> None:
        cursor = self.cursors[node_id][obj_id]
        cursor.delivered, cursor.arrived = delivered, arrived or cursor.arrived

    def fast_forward(self, node_id: int, obj_id: int) -> None:
        """Jump a rejoined member's cursor to the present (``max`` only: a
        post-anchor switch replayed from the seed buffer may already have
        advanced it past the global value)."""
        life = self.objects[obj_id]
        cursor = self.cursors[node_id][obj_id]
        cursor.delivered = max(cursor.delivered, life.epoch)
        cursor.arrived = max(cursor.arrived, life.arrive_epoch)
