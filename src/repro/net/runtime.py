"""The per-process RTS layer of the real-socket backend.

Each node process runs one :class:`RealRuntime` on its
:class:`~repro.net.host.RealNode`, above the simulator's own broadcast
groups:

* **sharded total order** — each shard is one
  :class:`~repro.amoeba.broadcast.group.BroadcastGroup` (PB only) hosted by
  a :class:`~repro.net.host.RealNode`, which owns sequencing, retries, gap
  recovery, tail syncs and elections; an ordered write is one ``broadcast``
  and this module applies what the member delivers.
* **primary-copy management** — writes go to the object's primary, which
  serialises them through the simulator's primary-copy core
  (:mod:`repro.rts.p2p.fanout`): it deduplicates on (client, cseq), numbers
  each update in the object's bounded ``SequencerLog`` (a replica holds an
  early one back in its ``OrderingEngine``) and answers the writer once the
  update's ``FanOuts`` entry has every live peer's acknowledgement.
* **failure detection**, still this backend's own — every node heartbeats;
  a silent peer is declared dead and its acknowledgement debts are released.
* **takeover**, the simulator's seat switch — the lowest live node proposes
  itself for every primary-update object whose seat is dead, as a
  :class:`~repro.rts.p2p.fanout.SwitchRecord` in the object's shard order.
  A member installs a record newer than its last: the proposer's replica
  snapshot (its applied table keeps retries across the failover
  exactly-once), and its own applied writes before the record's log tail.

The engine reuses the simulator's object model verbatim
(:class:`~repro.rts.object_model.ObjectSpec`, ``execute_operation``), so an
operation applied in the same order on both backends produces the same
state.

**Threads.**  The node's one lock (``RealNode.lock``) guards all of this
state, and whoever holds it runs the protocol: the node's loop for a
datagram, a due timer or a control command, a client thread for its own
:meth:`~RealRuntime.read` and :meth:`~RealRuntime.start_write`.  A write is
issued on its client's thread, as an Orca process makes its own broadcast,
and lives in one :class:`_PendingWrite` record until it is applied here;
the client waits on the record's future outside the lock.  Every deferred
step is a node timer, never a callback handed to the loop.
"""

from __future__ import annotations

import collections
import functools
import importlib
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Type

from ..amoeba.broadcast.group import BroadcastGroup
from ..amoeba.broadcast.protocol import DeliveredMessage, MessageId, OrderingEngine, SequencerLog
from ..amoeba.message import Message
from ..config import BroadcastParams
from ..errors import NetworkError, RtsError, UnknownObjectError
from ..rts.manager import Replica
from ..rts.object_model import (RETRY, ObjectSpec, OperationDef,
                                execute_operation)
from ..rts.p2p.fanout import (FUTURE, FanOuts, SwitchRecord, lookup_applied,
                              place_epoch, record_applied)
from .host import RealNode
from .wire import from_wire, jsonify, wire_text

#: Wire encoding of the :data:`~repro.rts.object_model.RETRY` sentinel.
RETRY_MARKER = {"__retry__": True}

#: Real-backend management policies (the harness maps the richer simulator
#: policy names onto these two protocol families).
REAL_POLICIES = ("broadcast", "primary-update")


def resolve_spec(path: str) -> Type[ObjectSpec]:
    """Import an ``ObjectSpec`` subclass from a ``module:Class`` path."""
    module_name, _, class_name = path.partition(":")
    if not class_name:
        raise RtsError(f"spec path {path!r} is not 'module:Class'")
    spec_class = getattr(importlib.import_module(module_name), class_name)
    if not (isinstance(spec_class, type) and issubclass(spec_class, ObjectSpec)):
        raise RtsError(f"{path!r} does not name an ObjectSpec subclass")
    return spec_class


def spec_path(spec_class: Type[ObjectSpec]) -> str:
    """The ``module:Class`` path under which a spec class is importable."""
    return f"{spec_class.__module__}:{spec_class.__qualname__}"


def write_id(body: Dict[str, Any]) -> Tuple[str, int]:
    """A primary write's id, (client, cseq), from fields its body carries."""
    node, client = body["client"]
    return f"{node}.{client}", int(body["cseq"])


@dataclass(frozen=True)
class RealTimings:
    """Protocol timers, in real seconds.

    The defaults favour fast CI convergence on loopback; the failure
    detector is deliberately generous so a briefly descheduled process is
    not declared dead under load.  The broadcast groups read ``dead_after``
    (election timeout), ``retry_interval`` (retries and tail syncs) and
    ``gap_delay`` (:meth:`RealRuntime.set_seats`).  ``sync_interval`` stays
    for the callers that pass it (always equal to ``retry_interval``) and is
    read nowhere: a group's tail syncs run at ``retry_interval``.
    """

    heartbeat_interval: float = 0.15
    dead_after: float = 0.75
    retry_interval: float = 0.1
    sync_interval: float = 0.1
    gap_delay: float = 0.05
    #: Hard ceiling on one write submission; hitting it means the protocol
    #: is wedged and the test should fail loudly instead of hanging.
    submit_deadline: float = 30.0

    def as_payload(self) -> Dict[str, float]:
        return asdict(self)


@dataclass
class RealObject(Replica):
    """One shared object's replica inside a node process: the simulator's
    replica record plus this driver's ordering state."""

    spec_class: Type[ObjectSpec]
    policy: str
    shard: int
    primary: int
    #: The primary's numbering of updates and their retransmission history.
    log: SequencerLog
    #: Epoch of the last seat switch installed here.
    epoch: int = 0
    #: Every applied write, in application order: [client_node, client_id,
    #: cseq, op].  Identical on all replicas once quiesced.
    applied_log: List[List[Any]] = field(default_factory=list)
    #: Hold-back of updates that arrive ahead of their version (the versions
    #: are the engine's sequence numbers: it expects version + 1).
    updates: OrderingEngine = field(default_factory=OrderingEngine)
    #: On the primary, the writes to apply in arrival order, each with what
    #: to tell when it is done; the head stays until its update is
    #: acknowledged, so one update is in flight at a time.
    writes: Deque[Tuple[Dict[str, Any], Callable[[Any], None]]] = field(
        default_factory=collections.deque)
    #: The timer re-sending the head's update to the peers that owe an ack.
    resend: Optional[int] = None
    #: Reads served from this replica.
    local_reads: int = 0

    @property
    def version(self) -> int:
        """The last primary-path update applied here."""
        return self.updates.next_expected - 1

    @version.setter
    def version(self, version: int) -> None:
        # Installing a snapshot restarts the hold-back at its version.
        self.updates = OrderingEngine(next_expected=version + 1)

    def log_applied(self, body: Dict[str, Any]) -> None:
        """Append the write ``body`` carries to ``applied_log``."""
        client = body["client"]
        self.applied_log.append([int(client[0]), int(client[1]),
                                 int(body["cseq"]), body["op"]])


class _PendingWrite:
    """One write this node issued and has not yet seen applied.

    The record is the whole writer-side state of the write: the ordered body
    or primary request to (re-)send, until when, the timer to cancel when it
    ends, and the thread-safe future its issuer (a client thread) waits on.
    An ordered write's re-sends are its group member's.
    """

    __slots__ = ("issue", "obj", "body", "size", "future", "key", "deadline", "handle")

    def __init__(self, issue: Callable[["_PendingWrite"], None], obj: RealObject) -> None:
        #: (Re-)issues the write: at the start, and after a guard ``RETRY``.
        self.issue = issue
        self.obj = obj
        #: The body in wire form — an ordered body's JSON text, a primary
        #: request's decoded copy — and its encoded size, set by the issuer.
        self.body: Any = None
        self.size = 0
        self.future: Future = Future()
        #: Key in ``RealRuntime._pending``: an ordered write's (shard, uid
        #: counter) (each shard's member counts from 1), or the write id.
        self.key: Any = None
        self.deadline = 0.0
        #: The node timer that re-sends a primary request, or re-issues the
        #: write after a guard ``RETRY``; none while it applies on its primary.
        self.handle: Optional[int] = None

    @property
    def ordered(self) -> bool:
        """Is the write a broadcast (its key a (shard, counter) of ints)?"""
        return self.key is not None and type(self.key[0]) is int


@dataclass
class RealRuntimeStats:
    ordered_writes: int = 0
    primary_writes: int = 0
    guard_retries: int = 0
    deduplicated_writes: int = 0
    gap_requests: int = 0
    retransmissions: int = 0
    takeovers: int = 0
    takeover_failures: int = 0  # proposals not ended by ``stop()``
    peers_declared_dead: int = 0


class RealRuntime:
    """Protocol engine for one node of the real-process backend."""

    def __init__(self, node: RealNode, timings: Optional[RealTimings] = None) -> None:
        #: The node the groups run on; its handler table is the process's.
        self.node = node
        self.node_id = node.node_id
        self.transport = node.network
        self.timings = timings or RealTimings()
        self.stats = RealRuntimeStats()
        self.params = BroadcastParams(method="pb",
                                      election_timeout=self.timings.dead_after)
        self.objects: Dict[int, RealObject] = {}
        #: Acknowledgement debts of the primary writes applying here.
        self.fanouts = FanOuts()
        #: shard -> its broadcast group (this process's member of it).
        self.groups: Dict[int, BroadcastGroup] = {}
        self._pending: Dict[Any, _PendingWrite] = {}
        self._last_heard: Dict[int, float] = {}
        self._running = False
        for kind in ("hb", "pwrite", "pupd", "pupdack", "pgap", "pack"):
            self.node.register_handler(f"net.{kind}", getattr(self, f"_handle_{kind}"))
        #: An ordered body's ``type`` -> what applies it.
        self._ordered_kinds = {"op": self._apply_ordered_op, "switch": self._install_switch}

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def set_seats(self, seats: Dict[int, int]) -> None:
        """Join one broadcast group per shard, seated as the shard -> node
        table (identical cluster-wide) says."""
        for shard, seat in seats.items():
            group = BroadcastGroup(self.node, self.params, group_id=int(shard),
                                   sequencer_node_id=int(seat))
            group.retry_timeout = self.timings.retry_interval
            group.gap_request_delay = self.timings.gap_delay
            group.set_delivery_handler(self.node_id,
                                       functools.partial(self._deliver, int(shard)))
            self.groups[int(shard)] = group

    def install_objects(self, table: List[Dict[str, Any]]) -> None:
        """Create local replicas from the harness's object table."""
        for row in table:
            policy = row["policy"]
            if policy not in REAL_POLICIES:
                raise RtsError(f"real backend cannot manage policy {policy!r}")
            spec_class = resolve_spec(row["spec"])
            instance = spec_class.create(tuple(row.get("args", ())),
                                         dict(row.get("kwargs", {})))
            obj = RealObject(
                obj_id=int(row["obj_id"]),
                name=row["name"],
                spec_class=spec_class,
                instance=instance,
                policy=policy,
                shard=int(row["shard"]),
                primary=int(row["primary"]),
                log=SequencerLog(self.params.history_size),
            )
            self.objects[obj.obj_id] = obj

    def start(self) -> None:
        self.transport.on_message = self.node.dispatch
        with self.node.lock:
            now = self.node.now
            for node_id in self.transport.node_ids:
                if node_id != self.node_id:
                    self._last_heard[node_id] = now
            self._running = True
            self._heartbeat()
            self.node.set_timer(self.timings.heartbeat_interval, self._monitor)

    def stop(self) -> None:
        with self.node.lock:
            self._running = False
            for write in list(self._pending.values()):
                self._finish(write, error=NetworkError(
                    f"node {self.node_id} stopped with write {write.key} pending"))
            self.node.stop()

    # ------------------------------------------------------------------ #
    # Public operation API
    # ------------------------------------------------------------------ #

    def object_by_name(self, name: str) -> RealObject:
        for obj in self.objects.values():
            if obj.name == name:
                return obj
        raise UnknownObjectError(f"no object named {name!r} on node {self.node_id}")

    def read(self, obj: RealObject, op: OperationDef, args: Tuple[Any, ...],
             kwargs: Optional[Dict[str, Any]]) -> Any:
        """Serve a read from the local replica; callable from any thread."""
        with self.node.lock:
            obj.local_reads += 1
            return execute_operation(obj.instance, op, args, kwargs)

    def start_write(self, obj: RealObject, op_name: str, args: Tuple[Any, ...],
                    kwargs: Optional[Dict[str, Any]], client: Tuple[int, int],
                    cseq: int) -> _PendingWrite:
        """Issue one write from any thread; its result arrives on the
        record's ``future``.

        A client thread issues its own write here and then blocks on the
        future (outside the node lock), so a failure to issue lands on the
        future too.
        """
        body = {
            "obj_id": obj.obj_id,
            "op": op_name,
            "client": [int(client[0]), int(client[1])],
            "cseq": int(cseq),
            "args": list(args),
            "kwargs": dict(kwargs or {}),
        }
        if obj.policy == "broadcast":
            body["type"] = "op"
            write = _PendingWrite(self._issue_ordered_op, obj)
        else:
            write = _PendingWrite(self._issue_primary, obj)
        with self.node.lock:
            try:
                # The body reaches wire form before any protocol state moves:
                # an ordered body crosses its group as this text, a primary
                # applies the decoded copy, so every replica applies the same
                # value (not the caller's objects) — and a body the wire
                # cannot carry fails this call instead of taking a seqno.
                text = wire_text(body)
                write.body = text if obj.policy == "broadcast" else from_wire(text)
                write.size = len(text)
                write.issue(write)
            except Exception as exc:
                self._finish(write, error=exc)
        return write

    # ------------------------------------------------------------------ #
    # Pending writes: one record each
    # ------------------------------------------------------------------ #

    def _track(self, write: _PendingWrite, key: Any) -> None:
        """(Re-)register ``write`` under ``key`` with a fresh deadline."""
        self._pending.pop(write.key, None)
        write.key = key
        write.deadline = self.node.now + self.timings.submit_deadline
        self._pending[key] = write

    def _expired(self, write: _PendingWrite) -> bool:
        if self.node.now <= write.deadline:
            return False
        self._finish(write, error=NetworkError(
            f"write {write.key} on {write.obj.name!r} did not complete "
            f"within {self.timings.submit_deadline}s"))
        return True

    def _complete(self, write: _PendingWrite, result: Any) -> None:
        """The write reached the head of its order with ``result``."""
        if result == RETRY_MARKER:
            # Guard not satisfied; state was untouched, so re-issue after a
            # beat (the record stays pending, its handle now this timer).
            self.stats.guard_retries += 1
            if write.handle is not None:
                self.node.cancel_timer(write.handle)
            write.handle = self.node.set_timer(self.timings.gap_delay,
                                               write.issue, write)
            return
        self._finish(write, result)

    def _finish(self, write: _PendingWrite, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        """End the write: forget it, cancel its handle and, unless it was
        delivered, its broadcast's re-sends; wake its issuer."""
        self._pending.pop(write.key, None)
        if write.handle is not None:
            self.node.cancel_timer(write.handle)
        if write.ordered and error is not None:
            shard, counter = write.key
            self.groups[shard].members[self.node_id].cancel(
                MessageId(self.node_id, counter))
        if error is not None:
            write.future.set_exception(error)
        else:
            write.future.set_result(result)

    def _send(self, dst: Optional[int], kind: str, payload: Any) -> None:
        # size=1: any positive size stops Message estimating the payload.
        self.transport.send(Message(src=self.node_id, dst=dst, kind=kind,
                                    payload=payload, size=1))

    # ------------------------------------------------------------------ #
    # Ordered-broadcast write path
    # ------------------------------------------------------------------ #

    def _issue_ordered_op(self, write: _PendingWrite) -> None:
        self.stats.ordered_writes += 1
        self._issue_ordered(write)

    def _issue_ordered(self, write: _PendingWrite) -> None:
        shard = write.obj.shard
        member = self.groups[shard].members[self.node_id]
        # A fresh uid per issue: the seat remembers the old one as sequenced.
        # Tracked under it first: a local seat applies (and may finish or
        # re-issue) the write inside ``broadcast``.
        self._track(write, (shard, member.sent + 1))
        member.broadcast(write.body, write.size)

    def _deliver(self, shard: int, record: DeliveredMessage) -> None:
        """Apply one record ``shard`` delivered; complete the write it
        carries if this node issued it."""
        body = from_wire(record.payload)
        result = self._ordered_kinds[body["type"]](body)
        if record.origin == self.node_id:
            write = self._pending.get((shard, record.uid.counter))
            if write is not None:
                self._complete(write, result)

    # -- ordered apply ---------------------------------------------------- #

    def _apply_ordered_op(self, body: Dict[str, Any]) -> Any:
        obj = self.objects[int(body["obj_id"])]
        op = obj.spec_class.operation_def(body["op"])
        result = execute_operation(obj.instance, op, tuple(body["args"]),
                                   dict(body["kwargs"]))
        if result is RETRY:
            return RETRY_MARKER
        obj.log_applied(body)
        return result

    # ------------------------------------------------------------------ #
    # Primary-copy write path
    # ------------------------------------------------------------------ #

    def _issue_primary(self, write: _PendingWrite) -> None:
        # The id is stable across re-issues: a guard RETRY is not recorded
        # in the primary's applied table, so the same id applies later.
        self.stats.primary_writes += 1
        self._track(write, write_id(write.body))
        self._attempt_primary(write)

    def _attempt_primary(self, write: _PendingWrite) -> None:
        if self._expired(write):
            return
        obj = write.obj
        if obj.primary == self.node_id:
            # Applied here from now on: the update is re-sent until every
            # live peer has acknowledged it, and nothing ends that early.
            write.handle = None
            self._enqueue_primary(obj, write.body,
                                  functools.partial(self._applied_locally, write))
            return
        # The primary may change under us (takeover); it is re-read on every
        # attempt so re-sends chase the current one.
        write.handle = self.node.set_timer(self.timings.retry_interval,
                                           self._attempt_primary, write)
        self._send(obj.primary, "net.pwrite", write.body)

    def _applied_locally(self, write: _PendingWrite, outcome: Any) -> None:
        if self._pending.get(write.key) is not write:
            return  # ``stop()`` ended the write while it applied
        if isinstance(outcome, Exception):
            self._finish(write, error=outcome)
        else:
            self._complete(write, outcome)

    def _handle_pwrite(self, msg: Message) -> None:
        payload = msg.payload
        obj = self.objects.get(int(payload["obj_id"]))
        if obj is None or obj.primary != self.node_id:
            return  # stale routing; the writer will retry elsewhere
        self._enqueue_primary(obj, payload, functools.partial(
            self._reply_pack, obj, payload, msg.src))

    def _reply_pack(self, obj: RealObject, body: Dict[str, Any], writer: int,
                    outcome: Any) -> None:
        if isinstance(outcome, Exception) or obj.primary != self.node_id:
            return  # the writer re-sends until its deadline
        self._send(writer, "net.pack", {"client": body["client"],
                                        "cseq": body["cseq"], "result": outcome})

    def _enqueue_primary(self, obj: RealObject, body: Dict[str, Any],
                         done: Callable[[Any], None]) -> None:
        """Apply ``body`` on this primary after the writes queued before it;
        ``done`` gets its result, or what it raised, once that is final."""
        obj.writes.append((body, done))
        if len(obj.writes) == 1:
            self._primary_apply(obj)

    def _primary_apply(self, obj: RealObject) -> None:
        """Apply ``obj``'s queued primary writes in order until one has an
        update to wait for; its acknowledgement applies the rest."""
        while obj.writes:
            body, done = obj.writes[0]
            wid = write_id(body)
            duplicate, outcome = lookup_applied(obj.applied, wid)
            if duplicate:
                self.stats.deduplicated_writes += 1
            else:
                try:
                    op = obj.spec_class.operation_def(body["op"])
                    outcome = execute_operation(obj.instance, op, tuple(body["args"]),
                                                dict(body["kwargs"]))
                    if outcome is RETRY:
                        outcome = RETRY_MARKER
                    else:
                        outcome = jsonify(outcome)
                        record_applied(obj.applied, wid, outcome)
                        obj.log_applied(body)
                        if self._fan_out(obj, body, outcome):
                            return
                except Exception as exc:
                    outcome = exc
            obj.writes.popleft()
            done(outcome)

    def _fan_out(self, obj: RealObject, body: Dict[str, Any], result: Any) -> bool:
        """Send the applied head's update to every peer; True while a live
        peer owes its acknowledgement (re-sent every ``retry_interval``)."""
        peers = [node for node in self.transport.node_ids
                 if node != self.node_id and self.transport.peer_alive(node)]
        fanouts = self.fanouts
        fan = fanouts.new_transaction(len(peers), destinations=peers)
        version = obj.log.next_seq
        update = obj.log.append(self.node_id, MessageId(self.node_id, version),
                                dict(body, version=version, result=result, fan=fan), 0)
        obj.updates.offer(update)  # this copy is at ``version`` too
        self._send(None, "net.pupd", update.payload)
        if not fanouts.wait(fan, self.node_id, functools.partial(
                self._acknowledged, obj, fan, result)):
            fanouts.forget(fan)
            return False
        obj.resend = self.node.set_timer(self.timings.retry_interval,
                                         self._resend_update, obj, fan, update.payload)
        return True

    def _resend_update(self, obj: RealObject, fan: int, payload: Dict[str, Any]) -> None:
        for node in self.fanouts.owing(fan):
            self.stats.retransmissions += 1
            self._send(node, "net.pupd", payload)
        obj.resend = self.node.set_timer(self.timings.retry_interval,
                                         self._resend_update, obj, fan, payload)

    def _acknowledged(self, obj: RealObject, fan: int, result: Any) -> None:
        """Every live peer has the head's update: answer it, apply the rest."""
        self.node.cancel_timer(obj.resend)
        self.fanouts.forget(fan)
        obj.writes.popleft()[1](result)
        self._primary_apply(obj)

    def _handle_pupd(self, msg: Message) -> None:
        payload = msg.payload
        obj = self.objects.get(int(payload["obj_id"]))
        if obj is None or msg.src != obj.primary:
            return  # stale update from a deposed (dead) primary
        version = int(payload["version"])
        if version <= obj.version:
            self._send(obj.primary, "net.pupdack", payload["fan"])  # duplicate: re-ack
            return
        run = obj.updates.offer(DeliveredMessage(
            version, msg.src, MessageId(msg.src, version), payload, 0))
        if not run:
            # Held back behind a missing version: ask the primary for it.
            self.stats.gap_requests += 1
            self._send(obj.primary, "net.pgap",
                       {"obj_id": obj.obj_id, "have": obj.version})
        for record in run:
            self._apply_update(obj, record.payload)

    def _apply_update(self, obj: RealObject, payload: Dict[str, Any]) -> None:
        op = obj.spec_class.operation_def(payload["op"])
        # Deterministic operations on identical state yield the primary's
        # result; storing it locally keeps the applied table takeover-portable.
        execute_operation(obj.instance, op, tuple(payload["args"]),
                          dict(payload["kwargs"]))
        record_applied(obj.applied, write_id(payload), payload["result"])
        obj.log_applied(payload)
        self._send(obj.primary, "net.pupdack", payload["fan"])

    def _handle_pupdack(self, msg: Message) -> None:
        self.fanouts.release(msg.payload, msg.src)

    def _handle_pgap(self, msg: Message) -> None:
        payload = msg.payload
        obj = self.objects.get(int(payload["obj_id"]))
        if obj is None or obj.primary != self.node_id:
            return
        for version in range(int(payload["have"]) + 1, obj.log.next_seq):
            record = obj.log.get(version)
            if record is not None:
                self.stats.retransmissions += 1
                self._send(msg.src, "net.pupd", record.payload)

    def _handle_pack(self, msg: Message) -> None:
        write = self._pending.get(write_id(msg.payload))
        if write is not None:
            self._complete(write, msg.payload["result"])

    # ------------------------------------------------------------------ #
    # Failure detection and takeover
    # ------------------------------------------------------------------ #

    def _heartbeat(self) -> None:
        self.node.set_timer(self.timings.heartbeat_interval, self._heartbeat)
        self._send(None, "net.hb", None)

    def _handle_hb(self, msg: Message) -> None:
        self._last_heard[msg.src] = self.node.now

    def _monitor(self) -> None:
        self.node.set_timer(self.timings.heartbeat_interval, self._monitor)
        # An ordered write's only deadline check; a primary write is checked
        # where it is (re-)sent, and never once it is applying.
        for write in [w for w in self._pending.values() if w.ordered]:
            self._expired(write)
        now = self.node.now
        for node_id, heard in list(self._last_heard.items()):
            if not self.transport.peer_alive(node_id):
                continue
            if now - heard > self.timings.dead_after:
                self._declare_dead(node_id)

    def _declare_dead(self, node_id: int) -> None:
        self.stats.peers_declared_dead += 1
        self.transport.mark_dead(node_id)
        # Primaries here stop waiting for acks the dead peer cannot send.
        self.fanouts.node_crashed(node_id)
        self._propose_takeovers()

    def _propose_takeovers(self) -> None:
        """The lowest live node proposes itself for every primary-update
        object whose seat is dead — not only the seat that just died: a
        proposal can die with its proposer before it is sequenced."""
        alive = self.transport.peer_alive
        if min(filter(alive, self.transport.node_ids), default=None) != self.node_id:
            return
        for obj in self.objects.values():
            if obj.policy == "primary-update" and not alive(obj.primary):
                self._takeover(obj)

    def _takeover(self, obj: RealObject) -> None:
        """Propose this node as ``obj``'s primary: a switch record with this
        copy's state, version and applied table, and beside it only the
        newest ``history_size`` applied writes (the window the primary's
        ``SequencerLog`` keeps for ``net.pgap``)."""
        record = SwitchRecord(obj.obj_id, obj.epoch + 1, obj.policy, self.node_id,
                              obj.snapshot())
        write = _PendingWrite(self._issue_ordered, obj)
        write.future.add_done_callback(self._proposal_done)
        try:
            write.body = wire_text({"type": "switch", "record": record,
                                    "log": obj.applied_log[-obj.log.history_size:]})
            write.size = len(write.body)
            self._issue_ordered(write)
        except Exception as exc:
            self._finish(write, error=exc)

    def _proposal_done(self, future: Future) -> None:
        if future.exception() is not None and self._running:
            self.stats.takeover_failures += 1  # ``stop()`` ends one quietly

    def _install_switch(self, body: Dict[str, Any]) -> None:
        """Install a delivered switch unless this replica already installed
        one as new (the simulator's epoch rule).  The replica keeps its own
        applied writes in front of the record's log tail."""
        record = SwitchRecord(*body["record"])
        obj = self.objects[record.obj_id]
        if place_epoch(record.epoch, obj.epoch) != FUTURE:
            return
        tail = body["log"]
        obj.epoch, obj.primary = record.epoch, record.primary
        obj.restore(record.snapshot, record.primary == self.node_id)
        obj.applied_log[obj.version - len(tail):] = tail
        obj.log = SequencerLog(obj.log.history_size)
        obj.log.advance_to(obj.version + 1)
        self.stats.takeovers += 1
        if not self.transport.peer_alive(obj.primary):
            # After this delivery: a local seat would deliver a proposal
            # made inside it ahead of the rest of the delivered run.
            self.node.set_timer(0.0, self._propose_takeovers)

    # ------------------------------------------------------------------ #
    # Introspection for the control plane
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, Any]:
        """Quiescence-relevant counters, all JSON-native; ``seats`` holds the
        next seqno of each sequencer hosted here."""
        with self.node.lock:
            shards, seats = {}, {}
            for shard, group in self.groups.items():
                engine = group.member(self.node_id).engine
                shards[str(shard)] = {"next_expected": engine.next_expected,
                                      "holdback": engine.buffered_count,
                                      "sequencer": group.sequencer_node_id}
                if group.sequencer is not None:
                    seats[str(shard)] = group.sequencer.log.next_seq
            return {
                "node_id": self.node_id,
                "shards": shards,
                "seats": seats,
                "pending_ops": len(self._pending),
                "primary_pending": len(self.fanouts),
                "pending_updates": sum(obj.updates.buffered_count
                                       for obj in self.objects.values()),
                "dead": sorted(node for node in self.transport.node_ids
                               if not self.transport.peer_alive(node)),
            }

    def collect(self) -> Dict[str, Any]:
        """Final state dump for the oracle's convergence check."""
        with self.node.lock:
            objects = {}
            for obj in sorted(self.objects.values(), key=lambda o: o.obj_id):
                objects[str(obj.obj_id)] = {
                    "name": obj.name,
                    "policy": obj.policy,
                    "shard": obj.shard,
                    "primary": obj.primary,
                    "version": obj.version,
                    "state": jsonify(obj.instance.marshal_state()),
                    # JSON-native already: ``log_applied`` entries and a
                    # takeover's tail, decoded from the wire.
                    "applied_log": list(obj.applied_log),
                }
            groups = [group.stats for group in self.groups.values()]
            seats = [group.sequencer for group in self.groups.values()
                     if group.sequencer is not None]
            # This engine's counters, with its groups' and seats' shares.
            stats = asdict(self.stats)
            stats.update(
                local_reads=sum(obj.local_reads for obj in self.objects.values()),
                deduplicated_requests=sum(seat.duplicates_suppressed for seat in seats),
                gap_requests=stats["gap_requests"] + sum(
                    group.retransmit_requests for group in groups),
                retransmissions=stats["retransmissions"] + sum(
                    group.peer_retransmissions for group in groups) + sum(
                    seat.retransmissions + seat.duplicates_suppressed for seat in seats),
                elections=sum(group.elections for group in groups))
            return {"node_id": self.node_id, "objects": objects,
                    "transport": self.transport.summary(), "stats": stats}
