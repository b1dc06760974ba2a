"""Crash takeover: a surviving copy (or the commit record) re-seats a primary.

When a machine holding primary seats dies, the crash listener asks this
role to schedule one takeover per dead seat.  The successor is chosen the
same way everywhere, and the takeover is a switch like any other (see
:mod:`repro.rts.switch`), so every member installs the same state at the
same position of the object's order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Tuple

from ..errors import RtsError
from .policy import MECHANISM_PRIMARY
from .records import RecoveryRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.cluster import Cluster
    from ..amoeba.node import Node
    from ..sim.kernel import Simulator
    from ..sim.process import SimProcess
    from .base import ObjectHandle, RtsStats
    from .manager import ObjectManager
    from .p2p.directory import ObjectDirectory
    from .sharding import ShardRouter
    from .switch import SwitchEngine


class CommitRecords(Protocol):
    """The commit records a takeover falls back to."""

    last_committed: Dict[int, Tuple[Any, int, Dict]]


class TakeoverRuntime(Protocol):
    """What :class:`Takeover` reads and calls of the runtime."""

    cluster: "Cluster"
    sim: "Simulator"
    managers: Dict[int, "ObjectManager"]
    stats: "RtsStats"
    switch: "SwitchEngine"
    directory: "ObjectDirectory"
    primary: CommitRecords
    _policy_by_obj: Dict[int, str]

    def handle(self, obj_id: int) -> "ObjectHandle": ...
    def _node_of(self, proc: "SimProcess") -> "Node": ...
    def _mechanism_of(self, obj_id: int) -> str: ...
    def _ensure_router(self) -> "ShardRouter": ...
    def back_off(self, proc: "SimProcess") -> None: ...


class Takeover:
    """Primary takeovers after crashes, and the clients waiting them out."""

    def __init__(self, rts: TakeoverRuntime) -> None:
        self.rts = rts
        #: obj_id -> node coordinating an in-flight takeover (so a second
        #: crash can restart recovery if the coordinator died too).
        self._recovering: Dict[int, int] = {}
        self.recoveries: List[RecoveryRecord] = []

    def schedule_recoveries(self) -> None:
        """Start a takeover for every object whose primary seat is dead.

        Runs inside the node-crash listener.  The successor is chosen
        deterministically (freshest surviving copy — highest coherence
        version — ties to the lowest node id; with no valid copy left, the
        lowest live node id restores from the commit record), and the
        takeover itself runs in a thread on the successor: the broadcast
        switch it sends cannot ride the crash listener's event context.
        """
        rts = self.rts
        cluster = rts.cluster
        if not cluster.network.supports_broadcast:
            # No total order to carry a takeover switch on this hardware:
            # the object dies with its primary, exactly as in the paper.
            return
        for obj_id in rts.directory.objects():
            if rts._policy_by_obj.get(obj_id) is None:
                continue
            if rts._mechanism_of(obj_id) != MECHANISM_PRIMARY:
                continue
            primary = rts.directory.primary_of(obj_id)
            if cluster.node(primary).alive:
                continue
            coordinator = self._recovering.get(obj_id)
            if (coordinator is not None
                    and cluster.node(coordinator).alive):
                continue  # a live takeover is already on its way
            successor = self._choose_successor(obj_id)
            if successor is None:
                continue  # no live machine (or no record) to recover onto
            self._recovering[obj_id] = successor
            cluster.node(successor).kernel.spawn_thread(
                self._recover_primary, obj_id, primary, rts.sim.now,
                name=f"takeover:{rts.handle(obj_id).name}", daemon=True)

    def live_holders(self, obj_id: int) -> List[int]:
        """The live machines holding a valid copy of ``obj_id``, ascending."""
        managers = self.rts.managers
        return [node.node_id for node in self.rts.cluster.nodes
                if node.alive and managers[node.node_id].has_valid_copy(obj_id)]

    def _choose_successor(self, obj_id: int) -> Optional[int]:
        """The deterministic takeover winner for one dead-primary object."""
        holders = self.live_holders(obj_id)
        if holders:
            return max(holders, key=lambda nid: (
                self.rts.managers[nid].get(obj_id).version, -nid))
        if obj_id not in self.rts.primary.last_committed:
            return None
        live = [node.node_id for node in self.rts.cluster.nodes if node.alive]
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
        rts = self.rts
        proc = rts.sim.current_process
        node = rts._node_of(proc)
        try:
            if (rts._policy_by_obj.get(obj_id) is None
                    or rts._mechanism_of(obj_id) != MECHANISM_PRIMARY):
                return
            if rts.cluster.node(rts.directory.primary_of(obj_id)).alive:
                return  # superseded: the seat already landed somewhere live
            handle = rts.handle(obj_id)
            successor = node.node_id
            manager = rts.managers[successor]
            from_snapshot = not manager.has_valid_copy(obj_id)
            if from_snapshot:
                snapshot = rts.primary.last_committed.get(obj_id)
                if snapshot is None:
                    return  # nothing to recover from
            else:
                snapshot = manager.get(obj_id).snapshot()
            rts._ensure_router()
            rts.stats.primary_recoveries += 1
            record = RecoveryRecord(
                obj_id=obj_id, name=handle.name, old_primary=old_primary,
                new_primary=successor, epoch=rts.switch.epoch_of(obj_id) + 1,
                from_snapshot=from_snapshot, crashed_at=crashed_at)
            self.recoveries.append(record)
            # No admission gate: a takeover overrides whatever switch was
            # preparing (its admission is revoked and its freeze lifted).
            rts.switch.reseat(proc, node, obj_id, successor, snapshot,
                              tuple(sorted({successor, *self.live_holders(obj_id)})))
            record.completed_at = rts.sim.now
        finally:
            if self._recovering.get(obj_id) == node.node_id:
                self._recovering.pop(obj_id, None)

    def await_recovery(self, proc: "SimProcess", obj_id: int) -> None:
        """Park a client until the object's primary seat is live again."""
        rts = self.rts
        while (rts._mechanism_of(obj_id) == MECHANISM_PRIMARY
               and not rts.cluster.node(rts.directory.primary_of(obj_id)).alive):
            if not rts.cluster.network.supports_broadcast:
                raise RtsError(
                    f"primary of object {obj_id} crashed and this cluster's "
                    f"{rts.cluster.network.name!r} network cannot order a "
                    "takeover switch; the object is lost (as in the paper)")
            rts.back_off(proc)
