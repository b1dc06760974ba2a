"""Elasticity of the machine set: rejoin after a recovery, and planned drain.

A recovered machine lost every replica, cursor and table it held.  It
re-earns membership shard by shard: it re-enters each group's order at a
*rejoin anchor*, a donor unicasts the state covering everything ordered
before that anchor (the *seed*), and deliveries that arrive in between are
buffered and replayed on top of it.  A drain is the planned counterpart:
every seat leaves the machine before it does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Set, Tuple

from ..amoeba.broadcast import election
from ..amoeba.broadcast.protocol import CONTROL_MESSAGE_SIZE, DeliveredMessage
from ..errors import RtsError
from .policy import MECHANISM_BROADCAST, MECHANISM_PRIMARY
from .records import DrainRecord, RejoinRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.cluster import Cluster
    from ..config import CostModel
    from ..sim.kernel import Simulator
    from ..sim.process import SimProcess
    from .base import ObjectHandle, RtsStats
    from .batching import WriteBatcher
    from .manager import ObjectManager
    from .member import ShardMember
    from .p2p.directory import ObjectDirectory
    from .sharding import ShardRouter
    from .switch import SwitchEngine

#: Out-of-band rejoin traffic: a donor unicasts a recovered member the state
#: covering everything ordered before its rejoin anchor, and the member can
#: re-request the seed if the chosen donor died before sending it.
KIND_SEED = "rts.seed"
KIND_SEED_REQ = "rts.seed_req"


class SeatChoice(Protocol):
    def heaviest_writer(self, obj_id: int) -> Optional[int]: ...
    def most_writes(self, obj_id: int,
                    candidates: List[int]) -> Tuple[Optional[int], int]: ...


class MembershipRuntime(Protocol):
    """What :class:`Membership` reads and calls of the runtime."""

    cluster: "Cluster"
    sim: "Simulator"
    cost_model: "CostModel"
    managers: Dict[int, "ObjectManager"]
    stats: "RtsStats"
    router: Optional["ShardRouter"]
    switch: "SwitchEngine"
    directory: "ObjectDirectory"
    placement: SeatChoice
    _shard_members: Dict[Tuple[int, int], "ShardMember"]
    _batchers: Dict[Tuple[int, int], "WriteBatcher"]
    _txn_layer: Optional[Any]

    def handle(self, obj_id: int) -> "ObjectHandle": ...
    def handles(self) -> List["ObjectHandle"]: ...
    def _mechanism_of(self, obj_id: int) -> str: ...
    def _resolve(self, invocation_id: int, result: Any) -> None: ...
    def _wake_replica_waiters(self, node_id: int, obj_id: int) -> None: ...
    def await_delivery(self, proc: "SimProcess", send: Callable[..., Any],
                       payload: Tuple[Any, ...], size: int) -> Any: ...
    def back_off(self, proc: "SimProcess") -> None: ...
    def relocate_primary(self, proc: "SimProcess", handle: "ObjectHandle",
                         target: Optional[int] = None) -> bool: ...


class Membership:
    """Who is a full member, and how a machine becomes one again or leaves."""

    def __init__(self, rts: MembershipRuntime) -> None:
        self.rts = rts
        #: Nodes whose rejoin catch-up has not completed, with its record:
        #: they must not be targeted by seat moves or act as seed donors,
        #: and cluster-wide reconfiguration (migrations, shard moves) pauses
        #: while this is non-empty, so a seed is never computed against
        #: routes that shift under it.
        self.catching_up: Dict[int, RejoinRecord] = {}
        #: Nodes being drained out of the cluster (drain_node in progress).
        self._draining: Set[int] = set()
        #: Per-node rejoin incarnation counter: a crash during catch-up
        #: abandons the old rejoin thread and invalidates its seeds.
        self._rejoin_epoch: Dict[int, int] = {}
        #: (node_id, shard) pairs whose out-of-band seed has not arrived;
        #: their members buffer post-anchor deliveries here, replayed in
        #: order once the seed installs.
        self.awaiting_seed: Set[Tuple[int, int]] = set()
        self.seed_buffer: Dict[Tuple[int, int], List[DeliveredMessage]] = {}
        self.rejoins: List[RejoinRecord] = []
        self.drains: List[DrainRecord] = []

    def install_listeners(self) -> None:
        """Register every node's crash and recovery listeners and seed handlers."""
        for node in self.rts.cluster.nodes:
            nid = node.node_id
            node.on_recover(lambda n=nid: self.on_node_recover(n))
            node.on_crash(lambda n=nid: self.abort_rejoin(n))
            node.on_crash(lambda n=nid: self.rts.switch.node_crashed(n))
            node.register_handler(
                KIND_SEED, lambda m, n=nid: self._on_seed(n, m.payload))
            node.register_handler(
                KIND_SEED_REQ, lambda m, n=nid: self._on_seed_request(n, m.payload))

    def is_caught_up(self, node_id: int) -> bool:
        """Has ``node_id`` completed its rejoin catch-up (or never needed one)?"""
        if node_id in self.catching_up:
            return False
        router = self.rts.router
        if router is not None:
            for shard in router.active_shards():
                if not router.group_for(shard).member(node_id).synced:
                    return False
        return True

    def is_full_member(self, node_id: int) -> bool:
        """Alive, caught up and staying: may ``node_id`` be handed a seat?"""
        return (self.rts.cluster.node(node_id).alive
                and node_id not in self.catching_up
                and node_id not in self._draining)

    # -- rejoin after recovery ------------------------------------------- #

    def abort_rejoin(self, crashed: int) -> None:
        """A crash voids any rejoin catch-up in progress for the node.

        Bumping the rejoin epoch makes the running catch-up thread abandon
        itself at its next blocking point and invalidates any seed still in
        flight toward the dead machine, so a *second* recovery starts from
        a clean slate instead of accepting state captured for the first.
        """
        if self.catching_up.pop(crashed, None) is not None:
            self._rejoin_epoch[crashed] = self._rejoin_epoch.get(crashed, 0) + 1
        for key in [k for k in self.awaiting_seed if k[0] == crashed]:
            self.awaiting_seed.discard(key)
        for key in [k for k in self.seed_buffer if k[0] == crashed]:
            del self.seed_buffer[key]

    def on_node_recover(self, recovered: int) -> None:
        """React to a machine recovery: apply the crash's loss, start catch-up.

        Runs synchronously in the recover listener.  The crash's loss of
        RTS state is applied here rather than at crash time (so runs that
        never recover a node behave exactly as before): every replica the
        machine held — both mechanisms, with their applied-write tables —
        its epoch cursors, deferred traffic and write batchers are gone.  A
        rejoin thread then re-earns membership shard by shard before the
        member serves the cluster again.
        """
        rts = self.rts
        manager = rts.managers[recovered]
        held = list(manager.replicas)
        for obj_id in held:
            manager.discard(obj_id)
        # A dead or blank primary seat is the crash takeover's business.
        rts.directory.forget(recovered, held)
        rts.switch.wipe_node(recovered)
        if rts._txn_layer is not None:
            # The member's lock entries and outcome markers died with it;
            # the rejoin seeds re-establish them from a donor.
            rts._txn_layer.on_node_recover(recovered)
        for key in [k for k in rts._batchers if k[0] == recovered]:
            rts._batchers.pop(key).cancel()
        generation = self._rejoin_epoch.get(recovered, 0) + 1
        self._rejoin_epoch[recovered] = generation
        record = RejoinRecord(node_id=recovered, recovered_at=rts.sim.now)
        self.catching_up[recovered] = record
        self.rejoins.append(record)
        rts.cluster.node(recovered).kernel.spawn_thread(
            self._rejoin_body, recovered, generation, record,
            name=f"rejoin:{recovered}", daemon=True)

    def _rejoin_body(self, recovered: int, generation: int,
                     record: RejoinRecord) -> None:
        """Catch-up thread on a recovered node: seats, anchors, seeds, epochs."""
        rts = self.rts
        proc = rts.sim.current_process
        node = rts.cluster.node(recovered)

        def abandoned() -> bool:
            return (self._rejoin_epoch.get(recovered, 0) != generation
                    or not node.alive)

        if rts.router is not None:
            for shard in rts.router.active_shards():
                if abandoned():
                    return
                self._rejoin_shard(proc, recovered, shard, generation)
        if abandoned():
            return
        # Primary-mechanism objects carry no state in the seeds (their
        # copies re-replicate on demand); jump this member's epoch cursors
        # to the present so coherence traffic is not deferred forever
        # waiting on pre-crash switches the member will never deliver.
        for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
            if rts._mechanism_of(handle.obj_id) == MECHANISM_PRIMARY:
                rts.switch.fast_forward(recovered, handle.obj_id)
        self.catching_up.pop(recovered, None)
        rts.stats.node_rejoins += 1
        record.completed_at = rts.sim.now
        # Seat hand-back happens after the member is a full member again
        # (the relocation guard would refuse a catching-up target).
        record.seats_handed_back = self._hand_back_seats(proc, recovered)
        rts.stats.seats_handed_back += record.seats_handed_back

    def _rejoin_shard(self, proc: "SimProcess", recovered: int, shard: int,
                      generation: int) -> None:
        """Re-enter one broadcast group's total order (anchor + seed)."""
        group = self.rts.router.group_for(shard)
        member = group.member(recovered)
        node = self.rts.cluster.node(recovered)
        if group.sequencer_node_id == recovered:
            # The seat's in-memory state died with the crash; hand it to
            # the lowest caught-up peer, renumbering from live evidence.
            donors = self._seed_donors(shard, recovered)
            if not donors:
                # Sole survivor: re-found the order from scratch.  Whatever
                # predated the crash is lost cluster-wide.
                election.install(group, recovered, 1, group.epoch + 1)
                member.mark_synced()
                return
            election.handoff(group, donors[0], trust_old=False)
        key = (recovered, shard)
        self.awaiting_seed.add(key)
        self.rts.await_delivery(proc, member.begin_rejoin,
                                ("rejoin", recovered, generation),
                                CONTROL_MESSAGE_SIZE)
        # Await the out-of-band seed; re-request on a timeout (the donor
        # chosen at the anchor's delivery may have died before sending, or
        # its unicast may have been lost).
        while key in self.awaiting_seed:
            proc.hold(group.retry_timeout)
            if (self._rejoin_epoch.get(recovered, 0) != generation
                    or not node.alive):
                return
            if key in self.awaiting_seed:
                self._request_seed(recovered, shard, generation)

    def _seed_donors(self, shard: int, rejoining: int) -> List[int]:
        """Live, synced, caught-up members able to seed a rejoin (sorted)."""
        group = self.rts.router.group_for(shard)
        return sorted(
            nid for nid, member in group.members.items()
            if member.node.alive and member.synced and nid != rejoining
            and nid not in self.catching_up)

    def apply_rejoin(self, member: "ShardMember", delivered: DeliveredMessage) -> None:
        """One member's delivery of a recovered peer's rejoin anchor.

        At the rejoining member itself the anchor's arrival already
        fast-forwarded the ordering engine (group layer); here it only
        wakes the rejoin thread.  At every other member, the lowest-id
        eligible peer captures the seed — the shard's object states exactly
        as of the anchor's position in the order — and unicasts it.
        """
        _, rejoining, generation, invocation_id = delivered.payload
        node_id, shard = member.key
        member.node.charge_overhead(self.rts.cost_model.cpu.operation_dispatch_cost)
        if node_id == rejoining:
            self.rts._resolve(invocation_id, None)
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
        rts = self.rts
        manager = rts.managers[donor]
        objects: List[Tuple[Any, ...]] = []
        shard_objs: List[int] = []
        payload_bytes = 0
        for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if rts._mechanism_of(obj_id) != MECHANISM_BROADCAST:
                continue
            if rts.router.assign(obj_id, handle.name) != shard:
                continue
            shard_objs.append(obj_id)
            if not manager.has_valid_copy(obj_id):
                continue
            replica = manager.get(obj_id)
            objects.append((obj_id, replica.instance.marshal_state(),
                            replica.version)
                           + rts.switch.position(donor, obj_id))
            payload_bytes += replica.instance.state_size()
        payload = {"shard": shard, "generation": generation, "upto": upto,
                   "objects": objects}
        if rts._txn_layer is not None:
            # Transaction lock entries and queues travel with the replica
            # state: they are as much a part of the donor's position in
            # the order as the object versions are.
            payload["txn"] = rts._txn_layer.seed_state(donor, shard_objs)
        node = rts.cluster.node(donor)
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
        node = self.rts.cluster.node(rejoining)
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
        member = self.rts.router.group_for(shard).member(node_id)
        if (not member.node.alive or not member.synced
                or node_id in self.catching_up):
            return  # cannot serve a seed we do not fully hold ourselves
        # Outside a delivery handler every delivered message has been
        # applied, so the donor's position is its delivery cursor.
        self._send_seed(node_id, rejoining, shard, generation,
                        upto=member.engine.next_expected - 1)

    def _on_seed(self, node_id: int, payload: Dict[str, Any]) -> None:
        """The rejoining member installs a seed and opens its delivery gate."""
        rts = self.rts
        shard = payload["shard"]
        key = (node_id, shard)
        if key not in self.awaiting_seed:
            return  # duplicate (two donors raced); the first one won
        if self._rejoin_epoch.get(node_id, 0) != payload["generation"]:
            return  # stale seed from a rejoin a later crash voided
        manager = rts.managers[node_id]
        count = 0
        for obj_id, state, version, delivered, arrived in payload["objects"]:
            handle = rts.handle(obj_id)
            instance = handle.spec_class()
            instance.unmarshal_state(state)
            manager.discard(obj_id)
            manager.install(obj_id, handle.name, instance, version=version)
            rts.stats.replicas_created += 1
            rts.switch.seed_position(node_id, obj_id, delivered, arrived)
            rts._wake_replica_waiters(node_id, obj_id)
            count += 1
        if rts._txn_layer is not None and payload.get("txn"):
            rts._txn_layer.install_seed(node_id, payload["txn"])
        record = self.catching_up.get(node_id)
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
        self.awaiting_seed.discard(key)
        member = self.rts._shard_members[key]
        for delivered in self.seed_buffer.pop(key, []):
            if delivered.seqno <= upto:
                continue  # covered by the seed snapshot
            member.on_deliver(delivered)
        self.rts.router.group_for(shard).member(node_id).resume_delivery(upto)

    def _hand_back_seats(self, proc: "SimProcess", recovered: int) -> int:
        """Hand primary seats back toward a rejoined heaviest writer."""
        rts = self.rts
        handed = 0
        for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
            obj_id = handle.obj_id
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            if rts.directory.primary_of(obj_id) == recovered:
                continue
            if rts.placement.heaviest_writer(obj_id) != recovered:
                continue
            if rts.relocate_primary(proc, handle, target=recovered):
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
        rts = self.rts
        node = rts.cluster.node(node_id)
        if not node.alive:
            raise RtsError(
                f"drain_node() drains live nodes; node {node_id} is crashed "
                "(crash recovery owns dead ones)")
        if node_id in self.catching_up:
            raise RtsError(
                f"node {node_id} is still catching up from a recovery and "
                "cannot be drained yet")
        if node_id in self._draining:
            return False
        if not any(n.alive and n.node_id != node_id
                   for n in rts.cluster.nodes):
            raise RtsError(
                f"cannot drain node {node_id}: it is the last live machine")
        self._draining.add(node_id)
        record = DrainRecord(node_id=node_id, started_at=rts.sim.now)
        self.drains.append(record)
        try:
            for handle in sorted(rts.handles(), key=lambda h: h.obj_id):
                obj_id = handle.obj_id
                if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                    continue
                while rts.directory.primary_of(obj_id) == node_id:
                    target = self._drain_target(obj_id, node_id)
                    if target is None:
                        raise RtsError(
                            f"cannot drain node {node_id}: no full member "
                            f"left to take the primary seat of object "
                            f"{obj_id}")
                    if rts.relocate_primary(proc, handle, target=target):
                        record.primary_seats_moved += 1
                        break
                    # Transient refusal (a switch still settling); retry.
                    rts.back_off(proc)
            if rts.router is not None:
                for shard in rts.router.active_shards():
                    group = rts.router.group_for(shard)
                    if group.sequencer_node_id != node_id:
                        continue
                    while group.sequencer.queue_depth > 0:
                        proc.hold(group.retry_timeout)
                    target = self._drain_sequencer_target(group, node_id)
                    if target is None:
                        raise RtsError(
                            f"cannot drain node {node_id}: no full member "
                            f"left to take shard {shard}'s sequencer seat")
                    election.handoff(group, target, trust_old=True)
                    record.sequencer_seats_moved += 1
            self._await_node_quiesced(proc, node_id)
            node.crash()
            rts.stats.nodes_drained += 1
            record.completed_at = rts.sim.now
            return True
        finally:
            self._draining.discard(node_id)

    def _drain_target(self, obj_id: int, leaving: int) -> Optional[int]:
        """The heaviest-writing full member to inherit a drained seat."""
        return self.rts.placement.most_writes(obj_id, [
            node.node_id for node in self.rts.cluster.nodes
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
                  for endpoint in self.rts.cluster.rpc.values()):
            self.rts.back_off(proc)
