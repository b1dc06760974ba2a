"""Cross-object atomic transactions over the hybrid runtime.

``rts.transact([(obj, op, args), ...])`` executes a group of operations on
multiple shared objects with all-or-nothing semantics and serializability:

* participants all broadcast-managed on **one shard** commit lock-free as
  a single ordered record carrying every sub-operation (the same-shard
  fast path — total order *is* atomicity);
* everything else runs an **ordered 2PC**: per-object ``txn-prepare``
  records sequenced through each broadcast participant's shard order plus
  seat locks on primary-copy participants, acquired in ascending
  object-id order (deadlock-free), with the commit point being the first
  ``txn-decide`` record in the decision shard's order.

Prepared objects *defer* conflicting writes into per-member FIFO queues
instead of rejecting them, so per-client FIFO holds; coordinator crashes
are resolved by a deterministic presumed-abort recovery pass that loses
to (or confirms) any decide record already in the order.  The layer is
created lazily on the first ``transact()`` call — runs that never
transact execute byte-identically to a runtime without it.

Isolation caveat: *writes* are serializable, but plain reads taken
between a cross-shard commit's per-shard outcome applies can observe
read skew — see :meth:`repro.rts.hybrid.HybridRts.transact` for the
full statement and the workaround (read through a transaction).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol, Tuple

from .coordinator import TxnCoordinator
from .locks import MemberLockTable, SeatLockTable
from .participant import TxnParticipant
from .records import TXN_KINDS, TxnDescriptor
from . import recovery as _recovery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..config import CostModel
    from ..rts.base import CallSite, ObjectHandle, RtsStats
    from ..rts.consistency import HistoryRecorder
    from ..rts.manager import ObjectManager
    from ..rts.p2p.directory import ObjectDirectory
    from ..rts.sharding import ShardRouter
    from ..rts.switch import SwitchEngine, _PendingWrite
    from ..sim.kernel import Simulator
    from ..sim.process import SimProcess

__all__ = [
    "TXN_KINDS",
    "TransactionLayer",
    "TxnCoordinator",
    "TxnDescriptor",
    "TxnParticipant",
]


class SeatPath(Protocol):
    """The primary-copy path and commit records a seat participant uses."""

    last_committed: Dict[int, Tuple[Any, int, Dict]]

    def write(self, proc: "SimProcess", nid: int, handle: "ObjectHandle",
              op: Any, args: Any, kwargs: Any, wid: Any = None) -> Any: ...


class Takeovers(Protocol):
    def await_recovery(self, proc: "SimProcess", obj_id: int) -> None: ...


class TxnRuntime(Protocol):
    """What the transaction layer reads and calls of the runtime."""

    cluster: "Cluster"
    sim: "Simulator"
    cost_model: "CostModel"
    managers: Dict[int, "ObjectManager"]
    stats: "RtsStats"
    history: "HistoryRecorder"
    switch: "SwitchEngine"
    router: Optional["ShardRouter"]
    directory: "ObjectDirectory"
    primary: SeatPath
    takeover: Takeovers
    _policy_by_obj: Dict[int, str]

    def handle(self, obj_id: int) -> "ObjectHandle": ...
    def shard_of(self, handle: "ObjectHandle") -> int: ...
    def _node_of(self, proc: "SimProcess") -> "Node": ...
    def _mechanism_of(self, obj_id: int) -> str: ...
    def _site(self, node_id: int, obj_id: int, op_name: str) -> "CallSite": ...
    def _resolve(self, invocation_id: int, result: Any) -> None: ...
    def _apply_one(self, node_id: int, manager: "ObjectManager", node: "Node",
                   obj_id: int, *write: Any) -> None: ...
    def _wait_for_change(self, proc: "SimProcess", node_id: int, obj_id: int) -> None: ...
    def await_delivery(self, proc: "SimProcess", send: Callable[..., Any],
                       payload: Tuple[Any, ...], size: int,
                       pending: Optional["_PendingWrite"] = None) -> Any: ...
    def back_off(self, proc: "SimProcess") -> None: ...


class TransactionLayer:
    """Facade wiring coordinator, participant, locks and recovery to a
    :class:`~repro.rts.hybrid.HybridRts`."""

    def __init__(self, rts: TxnRuntime) -> None:
        self.rts = rts
        self.locks = MemberLockTable(node.node_id for node in rts.cluster.nodes)
        self.seats = SeatLockTable()
        self.descs: Dict[int, TxnDescriptor] = {}
        self.txn_ids = itertools.count(1)
        #: obj_id -> number of live transactions naming it (pins() input).
        self._pinned: Dict[int, int] = {}
        self.participant = TxnParticipant(self)
        self._handlers = self.participant.handlers
        # The two delivery-path hooks HybridRts calls per write and per
        # switch: straight into the participant.
        self.defer_write = self.participant.defer_write
        self.on_switch_delivered = self.participant.on_switch_delivered
        self.coordinator = TxnCoordinator(self)
        # A pure-broadcast cluster never installs the primary-copy crash
        # services, so the layer listens for crashes itself.  Where the
        # runtime's own crash handler also runs (and calls on_node_crash
        # first), the second call is a no-op: every orphan already has a
        # live recovery owner by then.
        for node in rts.cluster.nodes:
            node.on_crash(lambda n=node.node_id: self.on_node_crash(n))

    # -- client surface -------------------------------------------------

    def transact(self, proc, ops, on_guard: str = "retry") -> List[Any]:
        return self.coordinator.transact(proc, ops, on_guard=on_guard)

    # -- hooks called from HybridRts ------------------------------------

    def on_deliver(self, member, record) -> None:
        """A ``txn-*`` record delivered at ``member`` (registered in the
        runtime's ``_deliver_kinds``): the one way the order enters this
        package."""
        payload = record.payload
        self._handlers[payload[0]](member.node_id, payload, record.origin,
                                   record.seqno)

    def seat_gate(self, proc, obj_id: int, wid) -> None:
        """Hold an ordinary primary write while a transaction pins the
        seat (the transaction's own applies pass through)."""
        while True:
            owner = self.seats.owner(obj_id)
            if owner is None:
                return
            if (wid is not None and isinstance(wid[0], str)
                    and wid[0].startswith(f"txn:{owner}#")):
                return
            self.seats.wait(obj_id, proc)
            proc.suspend()

    def pins(self, obj_id: int) -> bool:
        """Is the object a participant of any live transaction?  Policy
        migrations, shard moves and seat relocations refuse while true
        (their callers already retry)."""
        return self._pinned.get(obj_id, 0) > 0

    def on_node_crash(self, crashed: int) -> None:
        _recovery.schedule_recoveries(self, crashed)

    def on_node_recover(self, recovered: int) -> None:
        self.locks.wipe_node(recovered)

    def seed_state(self, donor: int, obj_ids) -> Dict[str, Any]:
        return self.locks.seed_state(donor, set(obj_ids))

    def install_seed(self, node_id: int, state: Dict[str, Any]) -> None:
        # The donor's snapshot may predate a normal completion: a tombstone
        # installed after ``forget_txn`` ran would never be dropped.
        outcomes = [mark for mark in state.get("outcomes", ())
                    if self.keeps_tombstone(self.descs.get(mark[0]))]
        self.locks.install_seed(node_id, {**state, "outcomes": outcomes})

    @staticmethod
    def keeps_tombstone(desc: Optional[TxnDescriptor]) -> bool:
        """Does an outcome of this transaction still leave a tombstone?

        Not once it completed normally: every prepare preceded its outcome
        in its shard's order, so no record of it can still arrive, and
        ``forget_txn`` has already run — a late member marking now would
        leak the entry.  A transaction a recovery pass owns keeps them: the
        dead coordinator's prepare may still be sequenced behind the
        recovery abort at some member.
        """
        return desc is None or not desc.done or desc.recovery_node is not None

    # -- descriptor lifecycle -------------------------------------------

    def register(self, desc: TxnDescriptor) -> None:
        self.descs[desc.txn_id] = desc
        for obj_id in desc.participants:
            self._pinned[obj_id] = self._pinned.get(obj_id, 0) + 1

    def complete(self, desc: TxnDescriptor, committed: bool,
                 same_shard: bool = False) -> None:
        if desc.done:
            return
        desc.done = True
        rts = self.rts
        for obj_id in desc.participants:
            remaining = self._pinned.get(obj_id, 0) - 1
            if remaining > 0:
                self._pinned[obj_id] = remaining
            else:
                self._pinned.pop(obj_id, None)
        if not self.keeps_tombstone(desc):
            self.locks.forget_txn(desc.txn_id)
        # Prune the transaction's entries from the primary dedup tables
        # (each sub-operation used a unique origin, so unlike client
        # writes they would otherwise accumulate forever).
        for index, obj_id, _op, _args, _kwargs in desc.primary_ops:
            origin = f"txn:{desc.txn_id}#{index}"
            primary = rts.directory.primary_of(obj_id)
            replica = (rts.managers[primary].replicas.get(obj_id)
                       if primary is not None else None)
            if replica is not None:
                replica.applied.pop(origin, None)
            committed_record = rts.primary.last_committed.get(obj_id)
            if committed_record is not None:
                committed_record[2].pop(origin, None)
        if committed:
            rts.stats.txn_commits += 1
            if same_shard:
                rts.stats.txn_same_shard_commits += 1
            else:
                rts.stats.txn_cross_shard_commits += 1
