"""The primary-copy mechanism: one seat per object, coherent secondaries.

Reads run on a valid local copy or by RPC at the primary seat; writes are
serialised at the seat, which keeps its secondaries coherent by invalidation
or two-phase update (:mod:`repro.rts.p2p`) and records every commit.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional, Protocol, Tuple

from ..amoeba.message import estimate_size
from ..amoeba.rpc import RpcReply, RpcRequest
from ..errors import RpcPeerDeadError, RtsError
from .object_model import RETRY
from .p2p.directory import ObjectDirectory
from .p2p.fanout import CURRENT, STALE, FanOuts, lookup_applied, record_applied
from .p2p.invalidation import KIND_INVALIDATE, InvalidationProtocol
from .p2p.replication_policy import ReplicationPolicy
from .p2p.update import KIND_UNLOCK, KIND_UPDATE, TwoPhaseUpdateProtocol
from .policy import FIXED_POLICIES, MECHANISM_PRIMARY
from .switch import MIGRATED, PORT_MIGRATE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.cluster import Cluster
    from ..config import CostModel
    from ..sim.kernel import Simulator
    from ..sim.process import SimProcess
    from .base import ObjectHandle, RtsStats
    from .manager import ObjectManager
    from .switch import SwitchEngine

#: Point-to-point protocol message kinds (unchanged from the classic p2p RTS).
KIND_ACK = "p2p.ack"
KIND_DROP = "p2p.drop"

PORT_READ = "orca.obj.read"
PORT_WRITE = "orca.obj.write"
PORT_FETCH = "orca.obj.fetch"

#: On-wire retry markers carried in RPC replies (strings, like the classic
#: ``"__retry__"``, so they survive the payload plumbing untouched).
MARKER_RETRY = "__retry__"
MARKER_MIGRATED = "__migrated__"
MARKER_MIGRATING = "__migrating__"

#: One attempt found the seat dead or not ready yet: the caller re-routes.
_REROUTE = object()


class Takeovers(Protocol):
    def schedule_recoveries(self) -> None: ...
    def await_recovery(self, proc: "SimProcess", obj_id: int) -> None: ...


class PrimaryRuntime(Protocol):
    """What :class:`PrimaryCopy` reads and calls of the runtime."""

    cluster: "Cluster"
    sim: "Simulator"
    cost_model: "CostModel"
    managers: Dict[int, "ObjectManager"]
    stats: "RtsStats"
    switch: "SwitchEngine"
    takeover: Takeovers
    _policy_by_obj: Dict[int, str]
    _txn_layer: Optional[Any]

    def handle(self, obj_id: int) -> "ObjectHandle": ...
    def _mechanism_of(self, obj_id: int) -> str: ...
    def back_off(self, proc: "SimProcess") -> None: ...


class PrimaryCopy:
    """The primary-copy path of one runtime and its exactly-once
    bookkeeping.  The p2p coherence protocols run over it."""

    def __init__(self, rts: PrimaryRuntime) -> None:
        self.rts = rts
        self.cluster = rts.cluster
        self.sim = rts.sim
        self.cost_model = rts.cost_model
        self.managers = rts.managers
        self.stats = rts.stats
        self.switch = rts.switch
        self.handle = rts.handle
        self.directory = ObjectDirectory()
        self.replication = ReplicationPolicy(self.cost_model.replication)
        self.protocols = {
            "invalidation": InvalidationProtocol(self),
            "update": TwoPhaseUpdateProtocol(self),
        }
        #: Coherence message kind -> its secondary-side handler.
        self.coherence = {
            KIND_INVALIDATE: self.protocols["invalidation"].handle_invalidate,
            KIND_UPDATE: self.protocols["update"].handle_update,
            KIND_UNLOCK: self.protocols["update"].handle_unlock,
        }
        self.fanouts = FanOuts()
        #: Cluster-unique write-invocation ids for the primary-copy path.
        self._write_ids = itertools.count(1)
        #: obj_id -> (state, version, dedup table) as of the last committed
        #: primary write — the commit record a takeover falls back to when
        #: the only valid copy died with its machine (primary-invalidate
        #: objects after any write).  It is per object, not per replica:
        #: it must outlive every copy.
        self.last_committed: Dict[int, Tuple[Any, int, Dict]] = {}

    def install_services(self) -> None:
        """Register every node's point-to-point handlers and RPC services."""
        for node in self.cluster.nodes:
            nid = node.node_id
            node.on_crash(lambda n=nid: self.on_node_crash(n))
            for kind in self.coherence:
                node.register_handler(
                    kind, lambda m, n=nid, k=kind: self.on_coherence(n, k, m.payload))
            node.register_handler(
                KIND_ACK, lambda m, n=nid: self.fanouts.on_ack(n, m.payload))
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

    # -- invocation: reads local-or-RPC, writes via the primary ------------ #

    def read(self, proc: "SimProcess", nid: int, handle: "ObjectHandle",
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
        result = self._at_primary(
            proc, nid, op, PORT_READ,
            {"obj_id": handle.obj_id, "op_name": op.name, "args": args,
             "kwargs": kwargs or {}},
            16 + estimate_size(args))
        if result is not MIGRATED:
            self.stats.note_read(handle.obj_id, local=False)
        return result

    def write(self, proc: "SimProcess", nid: int, handle: "ObjectHandle",
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
        result = self._at_primary(
            proc, nid, op, PORT_WRITE,
            {"obj_id": obj_id, "op_name": op.name, "args": args,
             "kwargs": kwargs or {}, "wid": wid},
            16 + estimate_size(args) + estimate_size(kwargs or {}))
        if result is not MIGRATED:
            return result
        # The commit record is the authority on whether an earlier issue of
        # this write already committed under the primary regime (its reply
        # may have died with the primary).  Re-routing a committed write to
        # the broadcast path would apply it a second time — broadcast writes
        # carry no ids — so return the recorded result instead.
        committed = self.last_committed.get(obj_id)
        if committed is not None:
            duplicate, recorded = lookup_applied(committed[2], wid)
            if duplicate:
                self.stats.deduplicated_writes += 1
                return recorded
        return MIGRATED

    def _at_primary(self, proc: "SimProcess", nid: int, op, port: str,
                    payload: Dict[str, Any], size: int) -> Any:
        """Run one operation at the object's primary seat until it is served.

        Returns the result, or ``MIGRATED`` once the object left primary-copy
        management.  A dead seat is waited out (a takeover re-seats it), a
        seat that cannot serve yet is backed off from, and a guard rejection
        waits a little and retries.  A write from the seat's own machine runs
        in place; everything else goes by RPC.
        """
        obj_id = payload["obj_id"]
        while True:
            if self.rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                return MIGRATED
            primary = self.directory.primary_of(obj_id)
            if not self.cluster.node(primary).alive:
                self.rts.takeover.await_recovery(proc, obj_id)
                continue
            if port == PORT_WRITE and primary == nid:
                result = self._write_at_seat(proc, nid, op, payload)
            else:
                if port == PORT_WRITE:
                    self.stats.rpc_writes += 1
                try:
                    result = self.cluster.rpc_for(nid).call(
                        proc, primary, port, payload=payload, size=size)
                except RpcPeerDeadError:
                    # The seat crashed with the call in flight.  A surviving
                    # secondary takes over; the retry re-routes there, and a
                    # write's id suppresses a second apply if it already
                    # reached the surviving state.
                    self.rts.takeover.await_recovery(proc, obj_id)
                    continue
                if isinstance(result, str):
                    if result == MARKER_MIGRATED:
                        return MIGRATED
                    if result == MARKER_MIGRATING:
                        # The seat exists but cannot serve yet (e.g. a
                        # takeover switch still in flight): back off.
                        self.rts.back_off(proc)
                        continue
                    if result == MARKER_RETRY:
                        result = RETRY
            if result is _REROUTE:
                continue
            if result is not RETRY:
                return result
            self.stats.guard_retries += 1
            self.rts.back_off(proc)

    def _write_at_seat(self, proc: "SimProcess", nid: int, op,
                       payload: Dict[str, Any]) -> Any:
        obj_id = payload["obj_id"]
        blocked = self._seat_gate(proc, nid, obj_id)
        if blocked == MARKER_MIGRATED:
            return MIGRATED
        if blocked is not None:
            if self.switch.objects[obj_id].frozen:
                self.rts.back_off(proc)
            # Otherwise the primary moved while this write was parked across
            # the switch: route it to the new one.
            return _REROUTE
        self.stats.local_writes += 1
        return self._commit(proc, obj_id, op, payload["args"],
                            payload["kwargs"], payload["wid"])

    def _seat_gate(self, proc: Optional["SimProcess"], nid: int, obj_id: int,
                   write: bool = True) -> Optional[str]:
        """Why ``nid``'s seat cannot serve ``obj_id`` now (a marker), or None.

        The seat must have applied every pre-switch write — delivered the
        object's latest switch — before it serves, and the object must still
        be primary-copy managed then (``MARKER_MIGRATED``).  A write also
        needs the object unfrozen and the seat still here
        (``MARKER_MIGRATING``: the client backs off and retries).
        """
        mechanism_of = self.rts._mechanism_of
        if mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        if proc is not None:
            self.switch.await_delivered(proc, nid, obj_id)
        if mechanism_of(obj_id) != MECHANISM_PRIMARY:
            return MARKER_MIGRATED
        if write and (self.switch.objects[obj_id].frozen
                      or self.directory.primary_of(obj_id) != nid):
            return MARKER_MIGRATING
        return None

    def _serve_read(self, nid: int, request: RpcRequest) -> Any:
        payload = request.payload
        handle = self.handle(payload["obj_id"])
        op = handle.spec_class.operation_def(payload["op_name"])
        manager = self.managers[nid]
        if self.rts._mechanism_of(payload["obj_id"]) != MECHANISM_PRIMARY:
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

    def _serve_write(self, nid: int, request: RpcRequest) -> Any:
        payload = request.payload
        obj_id = payload["obj_id"]
        handle = self.handle(obj_id)
        op = handle.spec_class.operation_def(payload["op_name"])
        proc = self.sim.current_process
        if proc is None:
            raise RtsError("write handler must run in a blocking-capable context")
        blocked = self._seat_gate(proc, nid, obj_id)
        if blocked is not None:
            return blocked
        result = self._commit(proc, obj_id, op, payload["args"],
                              payload["kwargs"], payload.get("wid"))
        if result is RETRY:
            return MARKER_RETRY
        return result

    def _commit(self, proc: "SimProcess", obj_id: int, op, args, kwargs,
                wid) -> Any:
        """Dedup-checked protocol write at the primary, plus commit record.

        Runs on the primary node (client or RPC server thread).  A write id
        the primary's applied table covers (``lookup_applied``) is a client
        re-issue of a write that committed (e.g. the reply was lost to a
        crash): it is answered without touching the object again.
        """
        primary = self.directory.primary_of(obj_id)
        txn_layer = self.rts._txn_layer
        if txn_layer is not None:
            # A transaction pinning this seat holds ordinary writes here
            # (its own sub-operations pass); serialisation order at the
            # primary is unchanged, the writes just park first.
            txn_layer.seat_gate(proc, obj_id, wid)
        # A process whose seat crashed under it finds no replica here.
        replica = self.managers[primary].get(obj_id)
        table = replica.applied
        duplicate, recorded = lookup_applied(table, wid)
        if duplicate:
            self.stats.deduplicated_writes += 1
            return recorded
        replica.inflight += 1
        protocol = FIXED_POLICIES[self.rts._policy_by_obj[obj_id]].protocol
        try:
            result = self.protocols[protocol].primary_write(
                proc, obj_id, op, args, kwargs, wid=wid)
        finally:
            replica.inflight -= 1
        if result is not RETRY:
            record_applied(table, wid, result)
            # The record is refreshed at EVERY commit point, like the
            # write-ahead commit record it models: deferring it while live
            # secondaries exist would lose committed writes when the
            # primary and the last secondary die together (the takeover
            # would restore a stale snapshot).  The O(state) copy per
            # commit is the price of that durability.
            self.commit_record(obj_id, primary)
        return result

    # -- dynamic replication --------------------------------------------- #

    def apply_replication_policy(self, proc: "SimProcess", nid: int,
                                 handle: "ObjectHandle") -> None:
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

    def _fetch_copy(self, proc: "SimProcess", nid: int,
                    handle: "ObjectHandle") -> None:
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
        if self.rts._mechanism_of(handle.obj_id) != MECHANISM_PRIMARY:
            return
        manager = self.managers[nid]
        manager.discard(handle.obj_id)
        manager.install(handle.obj_id, handle.name,
                        handle.spec_class()).restore(reply, is_primary=False)
        self.stats.replicas_created += 1

    def _serve_fetch(self, nid: int, request: RpcRequest):
        payload = request.payload
        obj_id = payload["obj_id"]
        proc = self.sim.current_process
        blocked = self._seat_gate(proc, nid, obj_id, write=False)
        if blocked is not None:
            return blocked
        manager = self.managers[nid]
        replica = manager.get(obj_id)
        # Do not hand out state in the middle of a write's critical section.
        while replica.locked and proc is not None:
            replica.on_next_change(lambda p=proc: p.wake())
            proc.suspend()
        self.directory.add_copy(obj_id, payload["requester"])
        # The applied-write table travels with the copy (bounded at one
        # entry per client), so a secondary promoted after a primary crash
        # can recognise re-issued writes; its bytes ride the reply.
        return RpcReply(payload=replica.snapshot(),
                        size=(replica.instance.state_size() + 16
                              + estimate_size(replica.applied)))

    # -- exactly-once bookkeeping (the commit record) --------------------- #

    def commit_record(self, obj_id: int, primary: Optional[int] = None) -> None:
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
        # Not ``replica.snapshot()``: the record aliases the live table
        # rather than copying it, which would cost one dict copy per write.
        self.last_committed[obj_id] = (
            replica.instance.marshal_state(), replica.version, replica.applied)

    # -- protocol plumbing used by the coherence strategies --------------- #

    def await_acks(self, proc: "SimProcess", txn_id: int) -> None:
        """Suspend the primary's writer until fan-out ``txn_id`` completes."""
        if self.fanouts.wait(txn_id, proc.node.node_id, proc.wake):
            proc.suspend()
        self.fanouts.forget(txn_id)

    def send_ack(self, from_node: int, payload: Dict[str, Any]) -> None:
        """Acknowledge a coherence message to the primary that sent it."""
        self.send_protocol_message(from_node, payload["ack_to"], KIND_ACK,
                                   {"txn_id": payload["txn_id"], "node": from_node})

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
            # Whoever applies, parks or drops it acknowledges to the sender
            # (the size above is the wire's; the address rides for free).
            payload["ack_to"] = src
        node = self.cluster.node(src)
        msg = node.make_message(dst, kind, payload=payload, size=size)
        node.send(msg)

    # -- incoming protocol messages --------------------------------------- #

    def drop_stale(self, nid: int, payload: Dict[str, Any]) -> None:
        if "txn_id" in payload:
            # Acknowledge so a (possibly still live) old primary waiting on
            # the fan-out is not left hanging.
            self.send_ack(nid, payload)

    def on_coherence(self, nid: int, kind: str, payload: Dict[str, Any]) -> None:
        """A coherence message reached a copy holder: by its epoch against
        the member's switch cursor it is applied, parked or dropped."""
        verdict = self.switch.screen(nid, kind, payload)
        if verdict == CURRENT:
            self.coherence[kind](nid, payload)
        elif verdict == STALE and kind != KIND_UNLOCK:
            self.drop_stale(nid, payload)

    def _on_drop(self, nid: int, payload: Dict[str, Any]) -> None:
        # A secondary informs the primary that it discarded its copy; the
        # directory may already reflect this (the secondary updates it
        # directly), so this is a tolerant no-op if so.
        self.directory.entry(payload["obj_id"]).copyset.discard(payload["node"])

    # -- machines leaving and re-entering ---------------------------------- #

    def on_node_crash(self, crashed: int) -> None:
        """React to a machine crash: release debts, prune state, recover.

        In order: (a) settle the fan-outs it owed acknowledgements to or
        was collecting them for (:meth:`FanOuts.node_crashed`); (b) prune its copies from the directory and discard its
        primary-managed replicas (their state died with the machine, and a
        later :meth:`Node.recover` must never serve them) and with them
        the commits that died mid-flight there; (c) start a primary
        takeover for every object whose primary seat just died.
        """
        self.fanouts.node_crashed(crashed)
        self.directory.forget(crashed)
        dead_manager = self.managers[crashed]
        for obj_id, policy in list(self.rts._policy_by_obj.items()):
            if (FIXED_POLICIES[policy].mechanism == MECHANISM_PRIMARY
                    and obj_id in dead_manager.replicas):
                dead_manager.discard(obj_id)
        self.rts.takeover.schedule_recoveries()
        if self.rts._txn_layer is not None:
            # After the runtime's own recovery: orphaned transactions (the
            # dead machine coordinated them) are driven to completion by
            # the lowest live node under presumed abort.
            self.rts._txn_layer.on_node_crash(crashed)
