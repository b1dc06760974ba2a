"""Deterministic transaction recovery after a coordinator-node crash.

Prepared participants never time out on their own: they hold their locks
until an outcome record arrives in their shard's order.  When the node
running a coordinator dies, the lowest live node takes over each of its
unfinished transactions (one daemon thread per transaction — two orphans
may be queued behind each other's locks, so recovery must not serialise
them) and drives the descriptor to completion under **presumed abort**:

* an abort ``txn-decide`` is broadcast into the decision shard; the
  *first* decide record in that order wins, so a commit decide the dead
  coordinator managed to sequence before crashing beats the recovery
  abort — and vice versa — identically at every member;
* the winning outcome is then propagated to every other shard that may
  carry a prepare (idempotent per member), seat-managed sub-operations
  are (re-)applied under their stable write ids when the outcome is
  commit, and the seats release.

A second crash that kills the recovery node simply reassigns the pass —
every step above is a no-op when it already happened.
"""

from __future__ import annotations

from .coordinator import CONTROL_RECORD_SIZE
from .records import KIND_DECIDE, OUTCOME_ABORT, OUTCOME_COMMIT


def schedule_recoveries(layer, crashed: int) -> None:
    """Start a recovery thread for every orphaned transaction.

    Runs inside the node-crash listener, after the runtime's own crash
    handling: a transaction is orphaned when its coordinator node is dead
    and no live recovery pass owns it yet.
    """
    rts = layer.rts
    live = sorted(node.node_id for node in rts.cluster.nodes if node.alive)
    if not live:
        return
    runner = live[0]
    for txn_id in sorted(layer.descs):
        desc = layer.descs[txn_id]
        if desc.done:
            continue
        if rts.cluster.node(desc.coordinator_node).alive:
            continue
        if (desc.recovery_node is not None
                and rts.cluster.node(desc.recovery_node).alive):
            continue  # a live pass already owns it
        desc.recovery_node = runner
        rts.cluster.node(runner).kernel.spawn_thread(
            _recovery_body, layer, desc,
            name=f"txn-recover:{txn_id}", daemon=True)


def _recovery_body(layer, desc) -> None:
    rts = layer.rts
    proc = rts.sim.current_process
    node = rts.cluster.node(desc.recovery_node)
    if desc.done:
        return
    coordinator = layer.coordinator
    if desc.outcome is None:
        if desc.decision_shard is not None:
            # Arbitrate through the decision order: our abort against any
            # commit decide the dead coordinator still has in flight.
            objs = desc.prepared_shards.get(desc.decision_shard, ())
            coordinator._broadcast_record(
                proc, node, rts.router.group_for(desc.decision_shard),
                (KIND_DECIDE, desc.txn_id, OUTCOME_ABORT, objs),
                size=CONTROL_RECORD_SIZE)
            desc.outcome_sent.add(desc.decision_shard)
            if desc.outcome is None:  # no prepare reached the order either
                desc.outcome = OUTCOME_ABORT
        else:
            # No broadcast participant ever prepared: the descriptor is
            # the commit point and it was never reached.  Presume abort.
            desc.outcome = OUTCOME_ABORT
    coordinator._propagate_outcome(proc, node, desc)
    if desc.outcome == OUTCOME_COMMIT:
        coordinator._apply_primary_ops(proc, node, desc)
    for obj_id in list(desc.seats_held):
        for waiter in layer.seats.release(obj_id, desc.txn_id):
            waiter.wake()
    desc.seats_held = []
    rts.stats.txn_recoveries += 1
    layer.complete(desc, committed=desc.outcome == OUTCOME_COMMIT,
                   same_shard=False)
