"""The invalidation coherence protocol for primary-copy objects.

When a write arrives at the primary, every secondary copy is invalidated
(discarded); once all invalidation acknowledgements are in, the write is
applied to the (now only) primary copy and the object is unlocked.  A machine
whose copy was invalidated and that later needs the object again must fetch a
fresh copy — the cost trade-off against the update protocol the paper
discusses in §3.2.2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..object_model import OperationDef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...sim.process import SimProcess
    from ..primary import PrimaryCopy

#: Message kinds used by the invalidation protocol.
KIND_INVALIDATE = "p2p.invalidate"


def live_secondaries(host: "PrimaryCopy", obj_id: int) -> list:
    """Secondary copy holders that are still alive.

    A crashed machine can never acknowledge, so fanning out to it would
    deadlock the primary; its directory entry is pruned instead.  (Objects
    migrated from broadcast management inherit their copyset from the whole
    cluster, which is how dead members can appear here.)
    """
    secondaries = host.directory.secondaries_of(obj_id)
    live = [n for n in secondaries if host.cluster.node(n).alive]
    for dead in set(secondaries) - set(live):
        host.directory.remove_copy(obj_id, dead)
    return live


class InvalidationProtocol:
    """Primary-side behaviour of the invalidation protocol."""

    name = "invalidation"

    def __init__(self, host: "PrimaryCopy") -> None:
        self.host = host
        self.invalidations_sent = 0
        self.writes_processed = 0

    def primary_write(self, proc: "SimProcess", obj_id: int, op: OperationDef,
                      args: Tuple[Any, ...], kwargs: Optional[Dict[str, Any]],
                      wid: Optional[Tuple[int, int]] = None) -> Any:
        """Execute a write at the primary: invalidate all secondaries first.

        Runs in the context of a (blocking-capable) process on the primary
        node: either the client itself (when the client is local) or the RPC
        server thread handling the remote write.  ``wid`` (the invocation's
        write id) is recorded by the runtime at commit time; invalidated
        secondaries hold no state, so nothing rides the invalidations.
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
                txn_id = host.fanouts.new_transaction(len(secondaries),
                                                      destinations=secondaries)
                for node_id in secondaries:
                    self.invalidations_sent += 1
                    host.stats.invalidations_sent += 1
                    host.send_protocol_message(
                        primary_node, node_id, KIND_INVALIDATE,
                        {"obj_id": obj_id, "txn_id": txn_id},
                    )
                host.await_acks(proc, txn_id)
                # All other copies are gone now.
                for node_id in secondaries:
                    host.directory.remove_copy(obj_id, node_id)
            result = manager.apply_write(obj_id, op, args, kwargs, local_origin=True)
        finally:
            replica.locked = False
        return result

    # -- secondary side ---------------------------------------------------- #

    def handle_invalidate(self, node_id: int, payload: Dict[str, Any]) -> None:
        """A secondary discards its copy and acknowledges."""
        host = self.host
        obj_id = payload["obj_id"]
        manager = host.managers[node_id]
        manager.invalidate(obj_id)
        manager.discard(obj_id)
        host.stats.replicas_dropped += 1
        host.send_ack(node_id, payload)
