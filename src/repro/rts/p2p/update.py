"""The two-phase update coherence protocol for primary-copy objects.

When a write arrives at the primary, the primary locks the object and ships
the *operation* (code plus parameters — cheaper in bandwidth than shipping
the new state) to every secondary.  Each secondary locks its copy, applies
the operation, acknowledges, and keeps the copy locked.  When all
acknowledgements have reached the primary, the second phase unlocks every
copy; reads attempted while a copy is locked wait until it is unlocked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..object_model import RETRY, OperationDef
from .fanout import record_applied
from .invalidation import live_secondaries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...sim.process import SimProcess
    from ..primary import PrimaryCopy

#: Message kinds used by the two-phase update protocol.
KIND_UPDATE = "p2p.update"
KIND_UNLOCK = "p2p.unlock"


class TwoPhaseUpdateProtocol:
    """Primary-side behaviour of the two-phase update protocol."""

    name = "update"

    def __init__(self, host: "PrimaryCopy") -> None:
        self.host = host
        self.updates_sent = 0
        self.unlocks_sent = 0
        self.writes_processed = 0

    def primary_write(self, proc: "SimProcess", obj_id: int, op: OperationDef,
                      args: Tuple[Any, ...], kwargs: Optional[Dict[str, Any]],
                      wid: Optional[Tuple[int, int]] = None) -> Any:
        """Execute a write at the primary with the two-phase update protocol.

        ``wid`` is the invocation's cluster-unique write id; it rides the
        phase-1 updates so every secondary records the write as applied.  A
        secondary promoted after a primary crash then recognises the
        client's re-issue of an in-flight write and does not apply it twice.
        """
        host = self.host
        primary_node = host.directory.primary_of(obj_id)
        manager = host.managers[primary_node]
        replica = manager.get(obj_id)
        secondaries = live_secondaries(host, obj_id)
        self.writes_processed += 1

        replica.locked = True
        try:
            if secondaries:
                # Phase 1: ship the operation, wait until everyone applied it.
                txn_id = host.fanouts.new_transaction(len(secondaries),
                                                      destinations=secondaries)
                for node_id in secondaries:
                    self.updates_sent += 1
                    host.stats.updates_sent += 1
                    host.send_protocol_message(
                        primary_node, node_id, KIND_UPDATE,
                        {"obj_id": obj_id, "txn_id": txn_id,
                         "op_name": op.name, "args": args,
                         "kwargs": kwargs or {}, "wid": wid},
                    )
                host.await_acks(proc, txn_id)
                # Phase 2: unlock every secondary copy.
                for node_id in secondaries:
                    self.unlocks_sent += 1
                    host.send_protocol_message(
                        primary_node, node_id, KIND_UNLOCK,
                        {"obj_id": obj_id, "txn_id": txn_id},
                    )
            result = manager.apply_write(obj_id, op, args, kwargs, local_origin=True)
        finally:
            replica.locked = False
        return result

    # -- secondary side ---------------------------------------------------- #

    def handle_update(self, node_id: int, payload: Dict[str, Any]) -> None:
        """A secondary applies the shipped operation, acknowledges, stays locked."""
        host = self.host
        obj_id = payload["obj_id"]
        manager = host.managers[node_id]
        if manager.has_valid_copy(obj_id):
            handle = host.handle(obj_id)
            op = handle.spec_class.operation_def(payload["op_name"])
            replica = manager.get(obj_id)
            result = manager.apply_write_to(replica, op, payload["args"],
                                            payload["kwargs"],
                                            local_origin=False)
            replica.locked = True
            if result is not RETRY:
                record_applied(replica.applied, payload.get("wid"), result)
            cpu = host.cost_model.cpu
            host.cluster.node(node_id).charge_overhead(
                cpu.operation_dispatch_cost + op.work_units * cpu.work_unit_time
            )
        host.send_ack(node_id, payload)

    def handle_unlock(self, node_id: int, payload: Dict[str, Any]) -> None:
        """Phase 2 at a secondary: make the copy readable again."""
        host = self.host
        manager = host.managers[node_id]
        obj_id = payload["obj_id"]
        if obj_id in manager.replicas:
            replica = manager.get(obj_id)
            replica.locked = False
            replica.notify_changed()
