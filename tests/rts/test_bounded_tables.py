"""After a quiescent run, every per-request table of the runtime is empty.

Each run drives a counter farm under one policy through one relocation (a
primary seat moved, or for broadcast objects a shard move) and one takeover
(a dead primary seat re-seated, or for broadcast objects a dead sequencer
replaced), lets the cluster run out, and then reads every table a request
leaves an entry in, at the role that owns it.  ``TransactionLayer.descs`` is
not among them: it still keeps one descriptor per transaction.
"""

from __future__ import annotations

import random

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.primary import KIND_UPDATE

NUM_NODES = 5
#: Hosts the seats that die (for broadcast objects: shard 1's sequencer);
#: it runs no clients, whose processes would die with it.
VICTIM = 1
CLIENT_NODES = (0, 2, 3, 4)
OPS_PER_CLIENT = 30


class Counter(ObjectSpec):
    def init(self, value=0):
        self.value = value

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def add(self, delta):
        self.value += delta
        return self.value


def farm(policy, seed=3):
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=2)
    handles = []
    primary = policy != "broadcast"

    def setup():
        proc = cluster.sim.current_process
        for i in range(4):
            handles.append(rts.create_object(proc, Counter, (0,), name=f"c{i}",
                                             policy=policy))
            if primary:
                rts.relocate_primary(proc, handles[-1], target=VICTIM)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()

    def client(node_id):
        def body():
            proc = cluster.sim.current_process
            rng = random.Random(f"{seed}/{node_id}")
            for _ in range(OPS_PER_CLIENT):
                handle = handles[rng.randrange(len(handles))]
                if rng.random() < 0.6:
                    rts.invoke(proc, handle, "add", (1,))
                else:
                    rts.invoke(proc, handle, "read")
                proc.hold(rng.random() * 0.001)
        return body

    def reconfigure():
        proc = cluster.sim.current_process
        proc.hold(0.004)
        if primary:
            assert rts.relocate_primary(proc, handles[0], target=2)
        else:
            assert rts.move_shard(proc, handles[0], 1 - rts.shard_of(handles[0]))
        proc.hold(0.004)
        cluster.node(VICTIM).crash()

    for node_id in CLIENT_NODES:
        cluster.node(node_id).kernel.spawn_thread(client(node_id))
    cluster.node(0).kernel.spawn_thread(reconfigure)
    cluster.run()
    return cluster, rts, handles


def open_entries(rts):
    cursors = [cursor for table in rts.switch.cursors for cursor in table.values()]
    return {
        "pending writes": dict(rts._pending),
        "fan-out transactions": dict(rts.primary.fanouts._transactions),
        "replica waiters": dict(rts._replica_waiters),
        "in-flight commits": {(node_id, obj_id): replica.inflight
                              for node_id, manager in rts.managers.items()
                              for obj_id, replica in manager.replicas.items()
                              if replica.inflight},
        "awaited seeds": set(rts.membership.awaiting_seed),
        "seed buffer": dict(rts.membership.seed_buffer),
        "parked writes": [c.future_writes for c in cursors if c.future_writes],
        "parked coherence": [c.deferred for c in cursors if c.deferred],
    }


@pytest.mark.parametrize("policy", ["primary-update", "primary-invalidate", "broadcast"])
def test_every_per_request_table_is_empty_after_a_quiescent_run(policy):
    cluster, rts, handles = farm(policy)
    with cluster:
        writes = sum(rts.stats.per_object_writes.values())
        assert writes > 0
        if policy == "broadcast":
            assert rts.stats.shard_moves == 1
            assert rts.router.group_for(1).sequencer_node_id != VICTIM
            total = sum(rts.managers[0].get(h.obj_id).instance.value for h in handles)
        else:
            assert rts.stats.primary_relocations == len(handles) + 1
            assert rts.stats.primary_recoveries == len(handles) - 1
            total = sum(rts.managers[rts.directory.primary_of(h.obj_id)]
                        .get(h.obj_id).instance.value for h in handles)
        assert total == writes
        assert {name: entries for name, entries in open_entries(rts).items()
                if entries} == {}
        assert not hasattr(rts, "_ack_destinations")
        assert not hasattr(rts.primary, "_ack_destinations")


def test_a_coherence_message_a_takeover_superseded_still_acks_its_sender():
    """A secondary that already delivered a later switch than the regime an
    update was issued under drops the update, and acknowledges it to the
    (possibly still live) old primary all the same, or that primary would
    wait on its fan-out forever."""
    cluster = Cluster(ClusterConfig(num_nodes=3, seed=1))
    rts = HybridRts(cluster, default_policy="primary-update",
                    replicate_everywhere=True)
    handles = []

    def setup():
        handles.append(rts.create_object(cluster.sim.current_process, Counter, (0,)))

    with cluster:
        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        obj_id = handles[0].obj_id
        epoch = rts.switch.epoch_of(obj_id)
        # The secondary delivered a takeover's switch the primary never saw.
        rts.switch.seed_position(1, obj_id, epoch + 1, 0)
        acked_at = []
        fanouts = rts.primary.fanouts
        on_ack = fanouts.on_ack
        fanouts.on_ack = lambda nid, payload: (acked_at.append(nid), on_ack(nid, payload))
        txn_id = fanouts.new_transaction(1, destinations=[1])
        rts.primary.send_protocol_message(
            0, 1, KIND_UPDATE,
            {"obj_id": obj_id, "txn_id": txn_id, "op_name": "add",
             "args": (5,), "kwargs": {}, "wid": None})
        cluster.run()
        assert acked_at == [0]
        assert fanouts._transactions[txn_id].remaining == 0
        assert rts.managers[1].get(obj_id).instance.value == 0
