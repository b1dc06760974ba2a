"""What switches, and when: policy migration, seat and shard moves, rebalancing.

Every decision here ends in one switch of :mod:`repro.rts.switch`: the
adaptive controller's policy flips, ``migrate``, ``relocate_primary``,
``move_shard`` and the shard-set changes (``add_shard``, ``remove_shard``).
The background rebalancer grows the shard set and moves objects on the
router's load windows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Set, Tuple

from ..amoeba.message import estimate_size
from ..errors import ConfigurationError, RtsError
from .p2p.fanout import LEG_ARRIVE, LEG_DRAIN, SwitchRecord
from .policy import MECHANISM_BROADCAST, MECHANISM_PRIMARY, AdaptivePolicy, management_policy
from .records import MigrationRecord, ShardMoveRecord
from .sharding import RebalancePlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..sim.kernel import Simulator
    from ..sim.process import SimProcess
    from .base import ObjectHandle, RtsStats
    from .p2p.directory import ObjectDirectory
    from .p2p.replication_policy import ReplicationPolicy
    from .policy import ManagementPolicy
    from .sharding import RebalanceParams, ShardRouter
    from .stats import AccessStats
    from .switch import CatchingUp, SwitchEngine

#: The rebalance controller exits after this many consecutive rounds with
#: no new write anywhere, so a finished workload lets the simulation drain
#: instead of ticking forever; the next write re-arms it.
QUIET_ROUNDS = 2
#: Per-object churn damping, in virtual seconds: an object the controller
#: moved less than this long ago is skipped by the next plan rounds.
MOVE_COOLDOWN = 0.02


class SeatState(Protocol):
    def commit_record(self, obj_id: int, primary: Optional[int] = None) -> None: ...


class LiveCopies(Protocol):
    def live_holders(self, obj_id: int) -> List[int]: ...


class PlacementRuntime(Protocol):
    """What :class:`Placement` reads and calls of the runtime."""

    cluster: "Cluster"
    sim: "Simulator"
    stats: "RtsStats"
    switch: "SwitchEngine"
    router: Optional["ShardRouter"]
    directory: "ObjectDirectory"
    replication: "ReplicationPolicy"
    rebalance: Optional["RebalanceParams"]
    default_policy: "ManagementPolicy"
    primary: SeatState
    takeover: LiveCopies
    membership: "CatchingUp"
    _policy_by_obj: Dict[int, str]
    _obj_access: Dict[int, "AccessStats"]
    _created_on: Dict[int, int]

    def handle(self, obj_id: int) -> "ObjectHandle": ...
    def handles(self) -> List["ObjectHandle"]: ...
    def shard_of(self, handle: "ObjectHandle") -> int: ...
    def _node_of(self, proc: "SimProcess") -> "Node": ...
    def _mechanism_of(self, obj_id: int) -> str: ...
    def _ensure_router(self) -> "ShardRouter": ...
    def _ensure_primary_services(self) -> None: ...
    def _wire_shard(self, shard: int) -> None: ...
    def is_full_member(self, node_id: int) -> bool: ...
    def back_off(self, proc: "SimProcess") -> None: ...


class Placement:
    """Policy, seat and shard placement of one runtime's objects."""

    def __init__(self, rts: PlacementRuntime) -> None:
        self.rts = rts
        self._rebalancer_active = False
        #: Objects whose adaptive migration thread is spawned but not done.
        self._migration_pending: Set[int] = set()
        #: obj_id -> virtual time of its last cross-group move (the
        #: rebalance controller's per-object churn cooldown).
        self._last_moved_at: Dict[int, float] = {}
        self.migrations: List[MigrationRecord] = []
        self.shard_moves: List[ShardMoveRecord] = []
        #: (obj_id, old_primary, new_primary) per completed seat relocation.
        self.relocations: List[Tuple[int, int, int]] = []
        #: Broadcast groups retired by remove_shard, in retirement order.
        self.removed_shards: List[int] = []

    def adaptive_check(self, proc: "SimProcess", handle: "ObjectHandle",
                       controller: AdaptivePolicy, is_write: bool) -> None:
        """Update the object's access window; migrate when ``controller`` says.

        The migration itself runs in a spawned thread on the invoking node:
        the client whose access tripped the threshold continues immediately
        instead of paying the freeze/switch round trips in its own request
        latency.
        """
        rts = self.rts
        window = rts._obj_access[handle.obj_id]
        if is_write:
            window.note_write()
        else:
            window.note_read()
        if not controller.due(window):
            return
        obj_id = handle.obj_id
        if obj_id in self._migration_pending:
            return
        if rts.switch.in_flight(obj_id):
            return
        target = controller.desired(window, rts._policy_by_obj[obj_id])
        if target is None:
            return
        self._migration_pending.add(obj_id)

        def migration_body() -> None:
            mproc = rts.sim.current_process
            try:
                if self.migrate(mproc, handle, target):
                    window.decay(controller.params.decay)
            finally:
                self._migration_pending.discard(obj_id)

        rts._node_of(proc).kernel.spawn_thread(migration_body, name=f"migrate:{handle.name}")

    # -- live migration between policies ----------------------------------- #

    def migrate(self, proc: "SimProcess", handle: "ObjectHandle",
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
        rts = self.rts
        target = management_policy(policy, default=rts.default_policy)
        if isinstance(target, AdaptivePolicy):
            raise ConfigurationError(
                "migrate() takes a fixed policy; attach adaptive control at "
                "create_object(policy='adaptive') time")
        obj_id = handle.obj_id
        if target.name == rts._policy_by_obj[obj_id]:
            return False
        node = rts._node_of(proc)
        with rts.switch.admit(obj_id, node.node_id,
                              pause_for_catch_up=True) as admitted:
            if not admitted:
                return False
            if target.mechanism == rts._mechanism_of(obj_id) == MECHANISM_PRIMARY:
                # Same mechanism, different coherence protocol: pure
                # bookkeeping, no broadcast needed (so this works on
                # point-to-point-only networks too).  Secondary-side
                # handling routes by message kind, so writes in flight
                # under the old protocol complete untouched.
                rts._policy_by_obj[obj_id] = target.name
                rts.stats.migrations += 1
                self.migrations.append(MigrationRecord(
                    obj_id=obj_id, name=handle.name, target=target.name,
                    epoch=rts.switch.epoch_of(obj_id),
                    primary_node=rts.directory.primary_of(obj_id)))
                return True
            # Mechanism changes ride the object's shard broadcast and may
            # land it under primary-copy management: both wirings needed.
            rts._ensure_router()
            rts._ensure_primary_services()
            if target.mechanism == MECHANISM_PRIMARY:
                self._migrate_to_primary(proc, node, handle, target.name,
                                         primary)
                return True
            # primary -> broadcast: freeze, snapshot, switch carrying the
            # state (each member installs it on delivery — the totally-ordered
            # state transfer).  From the new epoch on, writes route through
            # the broadcast.
            snapshot = rts.switch.snapshot_from_primary(proc, node, obj_id)
            if snapshot is None:
                return False
            epoch = rts.switch.advance(obj_id)
            rts._policy_by_obj[obj_id] = "broadcast"
            rts.stats.migrations += 1
            rts.stats.migrations_to_broadcast += 1
            self.migrations.append(MigrationRecord(
                obj_id=obj_id, name=handle.name, target="broadcast",
                epoch=epoch, primary_node=None))
            rts.switch.broadcast(
                proc, node, SwitchRecord(obj_id, epoch, "broadcast", -1, snapshot),
                size=32 + estimate_size(snapshot[0]))
            return True

    def most_writes(self, obj_id: int,
                    candidates: List[int]) -> Tuple[Optional[int], int]:
        """Of ``candidates``, the node with the most observed writes to
        ``obj_id`` (ties: the lowest id), and that count."""
        access_stats = self.rts.replication.access_stats

        def writes(nid: int) -> int:
            return access_stats(obj_id, nid).total_writes

        best = max(candidates, key=lambda nid: (writes(nid), -nid), default=None)
        return best, (writes(best) if best is not None else 0)

    def _migrate_to_primary(self, proc: "SimProcess", node: "Node",
                            handle: "ObjectHandle", target: str,
                            primary_override: Optional[int]) -> None:
        """broadcast -> primary: flip routing, then switch in total order
        (the identical replicas simply become the primary and secondary
        copies — no state transfer)."""
        rts = self.rts
        obj_id = handle.obj_id
        copyset = rts.takeover.live_holders(obj_id)
        if not copyset:
            raise RtsError(f"no live replica of object {obj_id} to migrate")
        if primary_override is not None:
            if primary_override not in copyset:
                raise RtsError(
                    f"node {primary_override} holds no live replica of "
                    f"object {obj_id}; cannot become its primary")
            primary = primary_override
        else:
            # The copy-holding live node with the most observed writes
            # (while nobody has written: the creator, if it holds a copy).
            primary, writes = self.most_writes(obj_id, copyset)
            creator = rts._created_on.get(obj_id)
            if not writes and creator in copyset:
                primary = creator
        # Flip the global routing first: new writes head for the primary,
        # where they wait until it has delivered the switch below.
        epoch = rts.switch.advance(obj_id)
        rts._policy_by_obj[obj_id] = target
        rts.directory.seat(obj_id, primary, copyset)
        rts.stats.migrations += 1
        rts.stats.migrations_to_primary += 1
        self.migrations.append(MigrationRecord(
            obj_id=obj_id, name=handle.name, target=target, epoch=epoch,
            primary_node=primary))
        rts.primary.commit_record(obj_id, primary)
        rts.switch.broadcast(proc, node,
                             SwitchRecord(obj_id, epoch, target, primary))

    # -- cross-group rebalancing: shard moves, live growth, primary seats -- #

    def move_shard(self, proc: "SimProcess", handle: "ObjectHandle",
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
        rts = self.rts
        router = rts._ensure_router()
        obj_id = handle.obj_id
        if not 0 <= new_shard < router.num_shards:
            raise ConfigurationError(
                f"cannot move {handle.name!r} to shard {new_shard}: only "
                f"{router.num_shards} shards exist")
        src = rts.shard_of(handle)
        if src == new_shard:
            return False
        node = rts._node_of(proc)
        with rts.switch.admit(obj_id, node.node_id,
                              pause_for_catch_up=True) as admitted:
            if not admitted:
                return False
            ordered = rts._mechanism_of(obj_id) == MECHANISM_BROADCAST
            epoch = (rts.switch.advance(obj_id, arrive=True) if ordered
                     else rts.switch.epoch_of(obj_id))
            router.move(obj_id, new_shard)
            self._last_moved_at[obj_id] = rts.sim.now
            rts.stats.shard_moves += 1
            self.shard_moves.append(ShardMoveRecord(
                obj_id=obj_id, name=handle.name, src=src, dst=new_shard,
                epoch=epoch))
            if ordered:
                for leg, shard in ((LEG_DRAIN, src), (LEG_ARRIVE, new_shard)):
                    rts.switch.broadcast(
                        proc, node,
                        SwitchRecord(obj_id, epoch, rts._policy_by_obj[obj_id],
                                     -1, leg=leg),
                        shard=shard)
            return True

    def heaviest_writer(self, obj_id: int) -> Optional[int]:
        """The live node with the most observed writes to ``obj_id``, if any."""
        best, writes = self.most_writes(
            obj_id, [node.node_id for node in self.rts.cluster.nodes if node.alive])
        return best if writes else None

    def relocate_primary(self, proc: "SimProcess", handle: "ObjectHandle",
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
        rts = self.rts
        obj_id = handle.obj_id
        if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
            raise RtsError(
                f"{handle.name!r} is broadcast-managed; relocate_primary "
                "applies to primary-copy objects (use move_shard instead)")
        if target is None:
            target = self.heaviest_writer(obj_id)
            if target is None:
                return False
        if not rts.cluster.node(target).alive:
            raise RtsError(f"node {target} is crashed and cannot become "
                           f"the primary of {handle.name!r}")
        if not rts.is_full_member(target):
            # Alive but not (or not staying) a full member: a seat parked
            # there would serve from un-reseeded state or be orphaned the
            # moment the drain retires the machine.  Abort cleanly.
            return False
        if target == rts.directory.primary_of(obj_id):
            return False
        if not rts.cluster.node(rts.directory.primary_of(obj_id)).alive:
            # The seat is already dead; the crash takeover owns the object.
            return False
        node = rts._node_of(proc)
        with rts.switch.admit(obj_id, node.node_id) as admitted:
            if not admitted:
                return False
            rts._ensure_router()
            primary = rts.directory.primary_of(obj_id)
            snapshot = rts.switch.snapshot_from_primary(proc, node, obj_id)
            if snapshot is None or not rts.cluster.node(target).alive:
                # Aborted, or the chosen seat died during the snapshot: leaving
                # the gate unfreezes the (still intact) old primary.
                return False
            scope = tuple(sorted(
                set(rts.directory.entry(obj_id).copyset) | {primary, target}))
            rts.stats.primary_relocations += 1
            self.relocations.append((obj_id, primary, target))
            rts.switch.reseat(proc, node, obj_id, target, snapshot, scope)
            return True

    # -- live scale-out and scale-in --------------------------------------- #

    def add_shard(self, sequencer_node_id: Optional[int] = None) -> int:
        """Add a broadcast group to the running cluster; returns its shard.

        The group's members join and its wire-kind namespace registers
        immediately (see :meth:`ShardRouter.add_shard` for seat selection),
        so the new total order can carry traffic — and receive rebalanced
        objects — without disturbing the existing groups.
        """
        rts = self.rts
        router = rts._ensure_router()
        shard = router.add_shard(sequencer_node_id=sequencer_node_id)
        rts._wire_shard(shard)
        rts.stats.shards_added += 1
        return shard

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
        rts = self.rts
        router = rts._ensure_router()
        if not 0 <= shard < router.num_shards:
            raise ConfigurationError(
                f"cannot remove shard {shard}: only {router.num_shards} "
                "shards exist")
        if shard in router.retired:
            return False  # idempotent: a second remove is a no-op
        if router.num_active_shards <= 1:
            raise ConfigurationError("cannot remove the last active shard")
        if rts.membership.catching_up:
            return False  # a rejoin seed is computed against current routes
        # Retire first: placements and planner moves stop targeting the
        # group immediately, so the evacuation below cannot race new
        # arrivals (already-assigned objects keep their recorded shard).
        router.retire_shard(shard)
        evacuees = sorted(
            handle.obj_id for handle in rts.handles()
            if router.assigned_shard(handle.obj_id) == shard)
        destinations = router.active_shards()
        for index, obj_id in enumerate(evacuees):
            handle = rts.handle(obj_id)
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
                rts.back_off(proc)
        group = router.group_for(shard)
        self._await_group_drained(proc, group)
        group.sequencer.retire()
        rts.stats.shards_removed += 1
        self.removed_shards.append(shard)
        return True

    def _await_group_drained(self, proc: "SimProcess",
                             group: "BroadcastGroup") -> None:
        """Wait until a group's order is fully served and fully delivered."""
        def drained() -> bool:
            if group.sequencer.queue_depth > 0:
                return False
            highest = group.sequencer.log.highest_assigned
            return all(
                member.engine.next_expected > highest
                for member in group.members.values()
                if member.node.alive and member.synced)
        while not drained():
            proc.hold(group.retry_timeout)

    # -- the background rebalancing controller --------------------------- #

    def maybe_start_rebalancer(self) -> None:
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
        host = next((node for node in self.rts.cluster.nodes if node.alive), None)
        if host is None:
            return
        self._rebalancer_active = True
        host.kernel.spawn_thread(self._rebalance_body,
                                 name="shard-rebalancer")

    def _rebalance_body(self) -> None:
        """Periodic plan-and-move rounds over the router's load windows.

        Each round: optionally grow the group set toward ``grow_to``, ask
        the planner for moves off the hottest shard, execute them, and
        reset the load window.  The loop exits after :data:`QUIET_ROUNDS`
        consecutive rounds without a single new write anywhere (so a
        drained workload lets the simulation terminate); fresh traffic
        re-arms it.
        """
        rts = self.rts
        proc = rts.sim.current_process
        host = rts._node_of(proc)
        params = rts.rebalance
        planner = RebalancePlanner(rts.router, params, exclude=self._in_move_cooldown)
        try:
            quiet = 0
            last_total = self._total_shard_writes()
            while quiet < QUIET_ROUNDS:
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
                live = sum(1 for n in rts.cluster.nodes if n.alive)
                if (params.grow_to is not None
                        and rts.router.num_active_shards
                        < min(params.grow_to, live)):
                    # Never outgrow the machines: every group needs a
                    # sequencer seat on a live node.
                    self.add_shard()
                moves = planner.plan()
                for move in moves:
                    self.move_shard(proc, rts.handle(move.obj_id), move.dst)
                if moves:
                    # The evidence behind these moves is spent; the next
                    # decision must re-earn itself on a fresh window.  (No
                    # reset on quiet rounds: the window keeps accumulating
                    # until there is enough traffic to decide on.)
                    rts.router.reset_window()
                    # Moves take virtual time; re-read the baseline so a
                    # round spent moving does not look like fresh traffic.
                    last_total = self._total_shard_writes()
        finally:
            self._rebalancer_active = False

    def _in_move_cooldown(self, obj_id: int) -> bool:
        """Churn damping: an object the controller moved less than
        :data:`MOVE_COOLDOWN` virtual seconds ago stays put, so
        near-balanced load stops shuffling the same object between groups
        (each move costs a drain-and-switch in two total orders)."""
        last = self._last_moved_at.get(obj_id)
        return last is not None and self.rts.sim.now - last < MOVE_COOLDOWN

    def _total_shard_writes(self) -> int:
        return sum(stats.writes for stats in self.rts.router.shard_stats.values())
