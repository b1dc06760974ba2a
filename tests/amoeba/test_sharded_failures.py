"""Failure injection for the sharded broadcast runtime.

The point of multi-group sharding is fault *containment* as much as
throughput: a sequencer crash in one shard must not stall traffic on other
shards, and each group must run its election independently.  These tests
crash shard sequencers mid-traffic and assert exactly that, plus replica
agreement among the survivors.
"""

from __future__ import annotations

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.sharding import ExplicitPlacement


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


def make_sharded_rts(num_nodes, num_shards, seed=13, placement=None,
                     batching=None):
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    rts = HybridRts(cluster, num_shards=num_shards, placement=placement,
                    batching=batching)
    return cluster, rts


class TestShardPlacementOfSequencers:
    def test_shard_sequencers_spread_round_robin_over_nodes(self):
        cluster, rts = make_sharded_rts(4, 4)
        with cluster:
            assert rts.router.sequencer_nodes() == [0, 1, 2, 3]

    def test_more_shards_than_nodes_wraps_around(self):
        cluster, rts = make_sharded_rts(3, 5)
        with cluster:
            assert rts.router.sequencer_nodes() == [0, 1, 2, 0, 1]


class TestShardFaultContainment:
    def test_sequencer_crash_in_one_shard_does_not_stall_others(self):
        """Crash shard 1's sequencer: shard-0 traffic flows undisturbed
        (no election, finishes first) while shard 1 recovers by election."""
        placement = ExplicitPlacement(2, {"a": 0, "b": 1})
        cluster, rts = make_sharded_rts(4, 2, placement=placement)
        with cluster:
            handles = {}
            finish = {}

            def setup():
                proc = cluster.sim.current_process
                handles["a"] = rts.create_object(proc, Counter, (0,), name="a")
                handles["b"] = rts.create_object(proc, Counter, (0,), name="b")

            def writer(name, count):
                proc = cluster.sim.current_process
                for _ in range(count):
                    rts.invoke(proc, handles[name], "add", (1,))
                finish[name] = proc.local_time

            def crasher():
                proc = cluster.sim.current_process
                proc.hold(0.01)
                # Shard 1's sequencer seat is node 1.
                assert rts.router.group_for(1).sequencer_node_id == 1
                cluster.node(1).crash()

            cluster.node(0).kernel.spawn_thread(setup)
            cluster.run()
            cluster.node(2).kernel.spawn_thread(writer, "a", 20)
            cluster.node(3).kernel.spawn_thread(writer, "b", 20)
            cluster.node(0).kernel.spawn_thread(crasher)
            cluster.run()

            group_a = rts.router.group_for(0)
            group_b = rts.router.group_for(1)
            # Shard 0 never noticed: no election, no new sequencer.
            assert group_a.stats.elections == 0
            assert group_a.sequencer_node_id == 0
            # Shard 1 recovered through its own election.
            assert group_b.stats.elections >= 1
            assert group_b.sequencer_node_id != 1
            # The healthy shard finished long before the recovering one.
            assert finish["a"] < finish["b"]
            # Survivors agree on both objects, with no lost updates.
            for node in cluster.nodes:
                if not node.alive:
                    continue
                assert rts.manager(node.node_id).get(
                    handles["a"].obj_id).instance.value == 20
                assert rts.manager(node.node_id).get(
                    handles["b"].obj_id).instance.value == 20

    def test_elections_are_independent_per_group(self):
        """Crashing one node triggers elections only in the shards whose
        sequencer seat it held."""
        cluster, rts = make_sharded_rts(4, 4, seed=29)
        with cluster:
            handles = {}

            def setup():
                proc = cluster.sim.current_process
                for shard in range(4):
                    # HashPlacement by id assigns obj_id i+1 to shard i % 4.
                    handles[shard] = rts.create_object(
                        proc, Counter, (0,), name=f"c{shard}")

            def writers(node_id):
                proc = cluster.sim.current_process
                for _ in range(10):
                    for shard in range(4):
                        rts.invoke(proc, handles[shard], "add", (1,))

            def crasher():
                proc = cluster.sim.current_process
                proc.hold(0.01)
                cluster.node(2).crash()

            cluster.node(0).kernel.spawn_thread(setup)
            cluster.run()
            for shard, handle in handles.items():
                assert rts.shard_of(handle) == shard
            for node_id in (0, 1, 3):
                cluster.node(node_id).kernel.spawn_thread(writers, node_id)
            cluster.node(0).kernel.spawn_thread(crasher)
            cluster.run()

            elections = [rts.router.group_for(s).stats.elections
                         for s in range(4)]
            # Only shard 2 (seat: node 2) had to elect.
            assert elections[2] >= 1
            assert elections[0] == elections[1] == elections[3] == 0
            assert rts.router.group_for(2).sequencer_node_id != 2
            for shard, handle in handles.items():
                values = {
                    rts.manager(n.node_id).get(handle.obj_id).instance.value
                    for n in cluster.nodes if n.alive
                }
                assert values == {30}, (shard, values)

    def test_batched_writes_survive_a_shard_sequencer_crash(self):
        """A batch in flight to a crashing sequencer is retried, survives the
        election, and is applied exactly once everywhere."""
        placement = ExplicitPlacement(2, {"hot": 1})
        cluster, rts = make_sharded_rts(4, 2, seed=17, placement=placement,
                                        batching={"max_batch": 4})
        with cluster:
            handles = {}

            def setup():
                proc = cluster.sim.current_process
                handles["hot"] = rts.create_object(proc, Counter, (0,),
                                                   name="hot")

            def writer(node_id, count):
                proc = cluster.sim.current_process
                for _ in range(count):
                    rts.invoke(proc, handles["hot"], "add", (1,))

            def crasher():
                proc = cluster.sim.current_process
                proc.hold(0.005)
                cluster.node(1).crash()

            cluster.node(0).kernel.spawn_thread(setup)
            cluster.run()
            for node_id in (0, 2, 3):
                cluster.node(node_id).kernel.spawn_thread(writer, node_id, 15)
            cluster.node(0).kernel.spawn_thread(crasher)
            cluster.run()

            assert rts.router.group_for(1).stats.elections >= 1
            for node in cluster.nodes:
                if not node.alive:
                    continue
                assert rts.manager(node.node_id).get(
                    handles["hot"].obj_id).instance.value == 45
            stats = rts.router.shard_stats[1]
            assert stats.batches > 0
            assert stats.batched_ops == 45
