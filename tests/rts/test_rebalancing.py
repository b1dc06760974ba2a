"""Runtime-level shard rebalancing: moves, live growth, primary relocation.

These are the deterministic (crash-free) tests of the drain-and-switch
machinery; the failure cases — source or destination sequencer crashing
mid-move — live in ``test_rebalance_failures.py``.
"""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.errors import ConfigurationError, RtsError
from repro.rts import placement
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 4


class Counter(ObjectSpec):
    def init(self, v=0):
        self.value = v

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def add(self, d):
        self.value += d
        return self.value


class AppendLog(ObjectSpec):
    """Order-sensitive object: the applied write order IS its state."""

    def init(self):
        self.items = []

    @operation(write=True)
    def append(self, item):
        self.items.append(item)
        return len(self.items)

    @operation(write=False)
    def snapshot(self):
        return list(self.items)


def make_rts(num_shards=2, seed=11, record_history=False, **kwargs):
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast",
                    num_shards=num_shards, record_history=record_history,
                    **kwargs)
    return cluster, rts


class TestMoveShard:
    def test_move_under_concurrent_writers_keeps_exactly_once_fifo(self):
        cluster, rts = make_rts(record_history=True)
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            handles["log"] = rts.create_object(proc, AppendLog, name="log")

        def client(nid, cid):
            proc = cluster.sim.current_process
            for k in range(15):
                rts.invoke(proc, handles["log"], "append", ((nid, cid, k),))
                proc.hold(0.0004)

        def mover():
            proc = cluster.sim.current_process
            proc.hold(0.003)
            assert rts.move_shard(proc, handles["log"], 1)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            for cid in range(2):
                node.kernel.spawn_thread(client, node.node_id, cid)
        cluster.node(2).kernel.spawn_thread(mover)
        cluster.run()

        assert rts.shard_of(handles["log"]) == 1
        items = rts.managers[0].get(handles["log"].obj_id).instance.items
        per_client = {}
        for nid, cid, k in items:
            per_client.setdefault((nid, cid), []).append(k)
        assert len(items) == NUM_NODES * 2 * 15  # exactly once
        for client_key, ks in per_client.items():
            assert ks == list(range(15)), (client_key, ks)
        for node in cluster.nodes:  # every replica agrees
            assert rts.managers[node.node_id].get(
                handles["log"].obj_id).instance.items == items
        # The destination group really carried the object's later writes.
        assert rts.router.group_for(1).stats.deliveries > 0
        from repro.rts.consistency import ConsistencyChecker
        ConsistencyChecker(rts.history).check_write_order_agreement()
        cluster.shutdown()

    def test_round_trip_move_restores_route_and_bumps_epochs(self):
        cluster, rts = make_rts()
        handles = {}
        facts = {}

        def main():
            proc = cluster.sim.current_process
            handle = rts.create_object(proc, Counter, (0,), name="c")
            handles["c"] = handle
            rts.invoke(proc, handle, "add", (1,))
            assert rts.move_shard(proc, handle, 1)
            rts.invoke(proc, handle, "add", (1,))
            assert rts.move_shard(proc, handle, 0)
            rts.invoke(proc, handle, "add", (1,))
            facts["value"] = rts.invoke(proc, handle, "read")

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        assert facts["value"] == 3
        assert rts.shard_of(handles["c"]) == 0
        assert rts.switch.epoch_of(handles["c"].obj_id) == 2
        assert rts.router.placement_epoch == 2
        assert rts.stats.shard_moves == 2
        assert [(m.src, m.dst) for m in rts.shard_moves] == [(0, 1), (1, 0)]
        cluster.shutdown()

    def test_noop_and_out_of_range_moves(self):
        cluster, rts = make_rts()
        handles = {}

        def main():
            proc = cluster.sim.current_process
            handle = rts.create_object(proc, Counter, (0,), name="c")
            handles["c"] = handle
            assert not rts.move_shard(proc, handle, rts.shard_of(handle))
            with pytest.raises(ConfigurationError):
                rts.move_shard(proc, handle, 7)

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        assert rts.stats.shard_moves == 0
        cluster.shutdown()

    def test_primary_managed_object_moves_without_broadcast(self):
        """A primary-copy object's move is pure routing bookkeeping."""
        cluster, rts = make_rts()
        handles = {}

        def main():
            proc = cluster.sim.current_process
            handle = rts.create_object(proc, Counter, (0,), name="p",
                                       policy="primary-invalidate")
            handles["p"] = handle
            shard = rts.shard_of(handle)
            deliveries_before = sum(g.stats.deliveries
                                    for g in rts.router.groups)
            assert rts.move_shard(proc, handle, 1 - shard)
            assert rts.shard_of(handle) == 1 - shard
            assert sum(g.stats.deliveries
                       for g in rts.router.groups) == deliveries_before
            rts.invoke(proc, handle, "add", (5,))
            assert rts.invoke(proc, handle, "read") == 5

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        assert rts.stats.shard_moves == 1
        cluster.shutdown()

    def test_stats_follow_the_object_after_a_move(self):
        """The bugfix: per-shard counters and the per-object shard column
        track the router's current view, not creation-time placement."""
        cluster, rts = make_rts()
        handles = {}

        def main():
            proc = cluster.sim.current_process
            handle = rts.create_object(proc, Counter, (0,), name="c")
            handles["c"] = handle
            src = rts.shard_of(handle)
            for _ in range(4):
                rts.invoke(proc, handle, "add", (1,))
            assert rts.move_shard(proc, handle, 1 - src)
            for _ in range(6):
                rts.invoke(proc, handle, "add", (1,))

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        src, dst = 0, 1  # object id 1 hashes to shard 0
        assert rts.router.shard_stats[src].writes == 4
        assert rts.router.shard_stats[dst].writes == 6
        rows = rts.read_write_summary()["per_object"]
        assert rows["c"]["writes"] == 10
        assert rows["c"]["shard"] == dst
        # Policy migration on top does not desync the shard column.

        def migrate():
            proc = cluster.sim.current_process
            rts.migrate(proc, handles["c"], "primary-invalidate")

        cluster.node(0).kernel.spawn_thread(migrate)
        cluster.run()
        rows = rts.read_write_summary()["per_object"]
        assert rows["c"]["policy"] == "primary-invalidate"
        assert rows["c"]["shard"] == dst
        cluster.shutdown()

    def test_rebalancing_summary_surfaces_in_reports(self):
        cluster, rts = make_rts()

        def main():
            proc = cluster.sim.current_process
            handle = rts.create_object(proc, Counter, (0,), name="c")
            rts.invoke(proc, handle, "add", (1,))
            rts.move_shard(proc, handle, 1)

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        digest = rts.read_write_summary()["rebalancing"]
        assert digest["moves"] == 1
        assert digest["placement_epoch"] == 1
        assert digest["log"] == [("c", 0, 1)]
        cluster.shutdown()


class TestAddShard:
    def test_add_shard_on_live_cluster_carries_traffic(self):
        cluster, rts = make_rts(num_shards=2)
        handles = {}

        def main():
            proc = cluster.sim.current_process
            handle = rts.create_object(proc, Counter, (0,), name="c")
            handles["c"] = handle
            for _ in range(5):
                rts.invoke(proc, handle, "add", (1,))
            shard = rts.add_shard()
            assert shard == 2
            assert rts.move_shard(proc, handle, shard)
            for _ in range(5):
                rts.invoke(proc, handle, "add", (1,))
            assert rts.invoke(proc, handle, "read") == 10

        cluster.node(1).kernel.spawn_thread(main)
        cluster.run()
        assert rts.router.num_shards == 3
        assert rts.stats.shards_added == 1
        # The fresh group sequenced the post-move writes.
        assert rts.router.group_for(2).stats.deliveries > 0
        # Seat chosen on the live node with the fewest seats (0 and 1 hold
        # the first two groups' seats).
        assert rts.router.sequencer_nodes()[2] == 2
        cluster.shutdown()

    def test_new_objects_hash_over_the_grown_shard_set(self):
        cluster, rts = make_rts(num_shards=2)
        shards = {}

        def main():
            proc = cluster.sim.current_process
            rts.add_shard()
            handles = [rts.create_object(proc, Counter, (0,), name=f"c{i}")
                       for i in range(3)]
            shards.update({h.name: rts.shard_of(h) for h in handles})

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        # Ids 1..3 hash over the grown range 0..2.
        assert sorted(shards.values()) == [0, 1, 2]
        cluster.shutdown()


class TestPrimaryRelocation:
    def test_primary_follows_heaviest_writer(self):
        cluster, rts = make_rts()
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(proc, Counter, (0,), name="c",
                                             policy="primary-update")

        def writer(nid, n):
            proc = cluster.sim.current_process
            for _ in range(n):
                rts.invoke(proc, handles["c"], "add", (1,))
                proc.hold(0.0004)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        cluster.node(3).kernel.spawn_thread(writer, 3, 20)
        cluster.node(1).kernel.spawn_thread(writer, 1, 5)
        cluster.run()

        def relocate():
            proc = cluster.sim.current_process
            assert rts.relocate_primary(proc, handles["c"])

        cluster.node(2).kernel.spawn_thread(relocate)
        cluster.run()
        obj_id = handles["c"].obj_id
        assert rts.directory.primary_of(obj_id) == 3
        assert rts.managers[3].get(obj_id).is_primary
        assert rts.stats.primary_relocations == 1
        assert rts.relocations == [(obj_id, 0, 3)]

        # Writes after the relocation land on the new primary, exactly once.
        def writer_after():
            proc = cluster.sim.current_process
            for _ in range(5):
                rts.invoke(proc, handles["c"], "add", (1,))
            assert rts.invoke(proc, handles["c"], "read") == 30

        cluster.node(3).kernel.spawn_thread(writer_after)
        cluster.run()
        cluster.shutdown()

    def test_relocation_during_writes_loses_nothing(self):
        cluster, rts = make_rts()
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(
                proc, Counter, (0,), name="c", policy="primary-update")

        def writer(nid, n):
            proc = cluster.sim.current_process
            for _ in range(n):
                rts.invoke(proc, handles["c"], "add", (1,))
                proc.hold(0.0005)

        def relocator():
            proc = cluster.sim.current_process
            proc.hold(0.006)
            rts.relocate_primary(proc, handles["c"], target=2)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            node.kernel.spawn_thread(writer, node.node_id, 10)
        cluster.node(2).kernel.spawn_thread(relocator)
        cluster.run()

        def check():
            proc = cluster.sim.current_process
            assert rts.invoke(proc, handles["c"], "read") == 40

        cluster.node(1).kernel.spawn_thread(check)
        cluster.run()
        assert rts.directory.primary_of(handles["c"].obj_id) == 2
        cluster.shutdown()

    def test_relocation_rejects_broadcast_objects_and_dead_targets(self):
        cluster, rts = make_rts()
        handles = {}

        def main():
            proc = cluster.sim.current_process
            b = rts.create_object(proc, Counter, (0,), name="b")
            p = rts.create_object(proc, Counter, (0,), name="p",
                                  policy="primary-update")
            handles.update(b=b, p=p)
            with pytest.raises(RtsError):
                rts.relocate_primary(proc, b, target=1)
            cluster.node(3).crash()
            with pytest.raises(RtsError):
                rts.relocate_primary(proc, p, target=3)
            # No writes observed anywhere: nothing suggests a better seat.
            assert not rts.relocate_primary(proc, p)

        cluster.node(0).kernel.spawn_thread(main)
        cluster.run()
        cluster.shutdown()


class TestRebalanceController:
    """The background controller: plan -> move -> reset, driven by load."""

    def run_skewed(self, rebalance):
        cost = CostModel().with_overrides(cpu={"sequencing_cost": 2.0e-4})
        cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=5,
                                        cost_model=cost))
        rts = HybridRts(cluster, default_policy="broadcast", num_shards=2,
                        placement={"hot0": 0, "hot1": 0, "cold": 1},
                        rebalance=rebalance)
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for name in ("hot0", "hot1", "cold"):
                handles[name] = rts.create_object(proc, Counter, (0,),
                                                  name=name)

        def client(nid):
            proc = cluster.sim.current_process
            for k in range(40):
                name = "cold" if k % 8 == 7 else ("hot0" if k % 2 else "hot1")
                rts.invoke(proc, handles[name], "add", (1,))
                proc.hold(0.0003)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            node.kernel.spawn_thread(client, node.node_id)
        cluster.run()
        return cluster, rts, handles

    def test_controller_moves_hot_objects_off_the_hot_shard(self):
        cluster, rts, handles = self.run_skewed(
            rebalance={"interval": 0.002, "imbalance": 1.3, "min_writes": 16,
                       "max_moves": 2})
        assert rts.stats.shard_moves >= 1
        # The first move takes a hot object off the overloaded shard 0;
        # later rounds may shuffle any object to keep the loads level.
        first = rts.shard_moves[0]
        assert first.name in ("hot0", "hot1")
        assert (first.src, first.dst) == (0, 1)
        # The two hot objects ended up spread over both groups (possibly
        # with the cold one re-packed next to one of them).
        final = {name: rts.shard_of(handles[name])
                 for name in ("hot0", "hot1")}
        assert set(final.values()) == {0, 1}

        def check():
            proc = cluster.sim.current_process
            total = sum(rts.invoke(proc, handles[n], "read")
                        for n in handles)
            assert total == NUM_NODES * 40

        cluster.node(0).kernel.spawn_thread(check)
        cluster.run()
        cluster.shutdown()

    def test_move_cooldown_damps_repeat_moves(self, monkeypatch):
        """Churn damping: with a cooldown spanning the whole run, the
        controller may move each object at most once, however many plan
        rounds fire on near-balanced load."""
        monkeypatch.setattr(placement, "MOVE_COOLDOWN", 10.0)
        cluster, rts, handles = self.run_skewed(
            rebalance={"interval": 0.002, "imbalance": 1.1, "min_writes": 8,
                       "max_moves": 3})
        names = [m.name for m in rts.shard_moves]
        assert rts.stats.shard_moves >= 1
        assert len(names) == len(set(names)), names
        # The predicate itself: a just-moved object reports in-cooldown.
        moved = rts.shard_moves[0]
        assert rts.placement._in_move_cooldown(moved.obj_id)
        cluster.shutdown()

    def test_cooldown_expires_with_virtual_time(self, monkeypatch):
        monkeypatch.setattr(placement, "MOVE_COOLDOWN", 0.001)
        cluster, rts, handles = self.run_skewed(
            rebalance={"interval": 0.002, "imbalance": 1.3, "min_writes": 16})
        assert rts.stats.shard_moves >= 1
        moved = rts.shard_moves[0].obj_id
        # All moves are long past by the time the run drained.
        assert not rts.placement._in_move_cooldown(moved)
        cluster.shutdown()

    def test_controller_runs_are_deterministic(self):
        first = self.run_skewed(rebalance={"interval": 0.002,
                                           "imbalance": 1.3,
                                           "min_writes": 16})
        second = self.run_skewed(rebalance={"interval": 0.002,
                                            "imbalance": 1.3,
                                            "min_writes": 16})
        moves_a = [(m.name, m.src, m.dst) for m in first[1].shard_moves]
        moves_b = [(m.name, m.src, m.dst) for m in second[1].shard_moves]
        assert moves_a == moves_b and moves_a
        first[0].shutdown()
        second[0].shutdown()

    def test_controller_grows_the_group_set_live(self):
        cluster, rts, handles = self.run_skewed(
            rebalance={"interval": 0.002, "imbalance": 1.3, "min_writes": 16,
                       "grow_to": 3})
        assert rts.router.num_shards == 3
        assert rts.stats.shards_added == 1
        cluster.shutdown()

    def test_controller_survives_its_host_node_crashing(self):
        """A dead machine cannot broadcast switches: the controller must bow
        out when its host crashes (and re-arm on a live node) instead of
        initiating a move whose drain switch would be silently dropped."""
        cost = CostModel().with_overrides(cpu={"sequencing_cost": 2.0e-4})
        cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=5,
                                        cost_model=cost))
        rts = HybridRts(cluster, default_policy="broadcast", num_shards=2,
                        placement={"hot0": 0, "hot1": 0, "cold": 1},
                        rebalance={"interval": 0.002, "imbalance": 1.3,
                                   "min_writes": 16, "max_moves": 2})
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for name in ("hot0", "hot1", "cold"):
                handles[name] = rts.create_object(proc, Counter, (0,),
                                                  name=name)

        def client(nid):
            proc = cluster.sim.current_process
            for k in range(40):
                name = "cold" if k % 8 == 7 else ("hot0" if k % 2 else "hot1")
                rts.invoke(proc, handles[name], "add", (1,))
                proc.hold(0.0003)

        def crasher():
            proc = cluster.sim.current_process
            proc.hold(0.001)
            # Node 0 hosts both the controller and shard 0's sequencer.
            cluster.node(0).crash()

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            if node.node_id == 0:
                continue
            node.kernel.spawn_thread(client, node.node_id)
        cluster.node(1).kernel.spawn_thread(crasher)
        cluster.run()

        # Every surviving client finished (no stranded half-move), and the
        # survivors agree on every counter.
        for name in ("hot0", "hot1", "cold"):
            values = {rts.managers[n.node_id].get(handles[name].obj_id)
                      .instance.value
                      for n in cluster.nodes if n.alive}
            assert len(values) == 1, (name, values)
        total = sum(next(iter({rts.managers[1].get(handles[name].obj_id)
                               .instance.value})) for name in handles)
        assert total == (NUM_NODES - 1) * 40
        cluster.shutdown()
