"""Unit tests for sharding policies, the router, and batching config."""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.sharding import (
    BatchingParams,
    ExplicitPlacement,
    HashPlacement,
    RebalanceMove,
    RebalanceParams,
    RebalancePlanner,
    ShardRouter,
    batching_params,
    make_policy,
    rebalance_params,
)


class Reg(ObjectSpec):
    def init(self, v=0):
        self.value = v

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def assign(self, v):
        self.value = v
        return v


class TestPolicies:
    def test_hash_by_id_spreads_sequential_ids_uniformly(self):
        policy = HashPlacement(4)
        shards = [policy.shard_of(obj_id, f"o{obj_id}")
                  for obj_id in range(1, 13)]
        assert shards == [0, 1, 2, 3] * 3

    def test_hash_by_name_is_stable(self):
        policy = HashPlacement(3, by="name")
        first = policy.shard_of(1, "job-queue")
        assert policy.shard_of(99, "job-queue") == first
        assert 0 <= first < 3

    def test_explicit_placement_pins_and_falls_back(self):
        policy = ExplicitPlacement(4, {"hot": 3})
        assert policy.shard_of(17, "hot") == 3
        fallback = HashPlacement(4).shard_of(17, "cold")
        assert policy.shard_of(17, "cold") == fallback

    def test_explicit_placement_rejects_out_of_range_shards(self):
        with pytest.raises(ConfigurationError):
            ExplicitPlacement(2, {"x": 5})

    def test_make_policy_coercions(self):
        assert isinstance(make_policy(2, None), HashPlacement)
        assert isinstance(make_policy(2, "hash"), HashPlacement)
        explicit = make_policy(2, {"a": 1})
        assert isinstance(explicit, ExplicitPlacement)
        assert explicit.shard_of(1, "a") == 1
        with pytest.raises(ConfigurationError):
            make_policy(2, HashPlacement(3))
        with pytest.raises(ConfigurationError):
            make_policy(2, 42)

    def test_num_shards_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            HashPlacement(0)


class TestBatchingParams:
    def test_coercions(self):
        assert batching_params(None) is None
        assert batching_params(False) is None
        assert batching_params(True) == BatchingParams()
        params = batching_params({"max_batch": 3, "flush_delay": 0.1})
        assert params.max_batch == 3 and params.flush_delay == 0.1
        assert batching_params(params) is params
        with pytest.raises(ConfigurationError):
            batching_params("yes")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BatchingParams(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchingParams(flush_delay=-1.0)

    def test_backpressure_knob(self):
        params = batching_params({"max_batch": 4, "backpressure_depth": 16})
        assert params.backpressure_depth == 16
        assert BatchingParams().backpressure_depth is None
        with pytest.raises(ConfigurationError):
            BatchingParams(backpressure_depth=0)


class TestRebalanceParams:
    def test_coercions(self):
        assert rebalance_params(None) is None
        assert rebalance_params(False) is None
        assert rebalance_params(True) == RebalanceParams()
        params = rebalance_params({"interval": 0.01, "grow_to": 4})
        assert params.interval == 0.01 and params.grow_to == 4
        assert rebalance_params(params) is params
        with pytest.raises(ConfigurationError):
            rebalance_params("often")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RebalanceParams(interval=0.0)
        with pytest.raises(ConfigurationError):
            RebalanceParams(quiet_rounds=0)
        with pytest.raises(ConfigurationError):
            RebalanceParams(grow_to=0)
        with pytest.raises(ConfigurationError):
            RebalanceParams(byte_weight=-0.5)

    def test_byte_weight_defaults_off(self):
        assert RebalanceParams().byte_weight == 0.0


class TestShardRouter:
    def test_single_shard_reuses_the_cluster_group(self):
        with Cluster(ClusterConfig(num_nodes=3, seed=1)) as cluster:
            router = ShardRouter(cluster)
            assert router.num_shards == 1
            assert router.group_for(0) is cluster.broadcast_group

    def test_groups_get_distinct_ids_and_seats(self):
        with Cluster(ClusterConfig(num_nodes=4, seed=1)) as cluster:
            router = ShardRouter(cluster, num_shards=3)
            ids = [group.group_id for group in router.groups]
            assert ids == [0, 1, 2]
            assert router.sequencer_nodes() == [0, 1, 2]

    def test_summary_shape(self):
        with Cluster(ClusterConfig(num_nodes=2, seed=1)) as cluster:
            router = ShardRouter(cluster, num_shards=2)
            summary = router.summary()
            assert summary["num_shards"] == 2
            assert set(summary["per_shard"]) == {0, 1}
            assert summary["placement_epoch"] == 0
            assert "overrides" not in summary
            assert summary["per_shard"][0]["max_queue_depth"] == 0

    def test_move_records_override_and_bumps_epoch(self):
        with Cluster(ClusterConfig(num_nodes=4, seed=1)) as cluster:
            router = ShardRouter(cluster, num_shards=2)
            assert router.assign(1, "a") == 0
            assert router.move(1, 1) == 0
            assert router.assigned_shard(1) == 1
            assert router.overrides == {1: 1}
            assert router.placement_epoch == 1
            assert router.move(1, 1) == 1  # noop keeps the epoch
            assert router.placement_epoch == 1
            assert router.summary()["overrides"] == {1: 1}
            with pytest.raises(ConfigurationError):
                router.move(1, 5)
            with pytest.raises(ConfigurationError):
                router.move(99, 0)  # never placed

    def test_window_counters_follow_a_moved_object(self):
        with Cluster(ClusterConfig(num_nodes=4, seed=1)) as cluster:
            router = ShardRouter(cluster, num_shards=2)
            for _ in range(6):
                router.note_write(1, "a")  # shard 0
            router.note_write(2, "b")      # shard 1
            assert router.window_loads() == {0: 6, 1: 1}
            router.move(1, 1)
            assert router.window_loads() == {0: 0, 1: 7}
            assert router.window_object_writes(shard=1) == {1: 6, 2: 1}
            router.reset_window()
            assert router.window_loads() == {0: 0, 1: 0}
            # Cumulative per-shard stats are untouched by the reset.
            assert router.shard_stats[0].writes == 6

    def test_byte_window_tracks_and_follows_moves(self):
        with Cluster(ClusterConfig(num_nodes=4, seed=1)) as cluster:
            router = ShardRouter(cluster, num_shards=2)
            for _ in range(3):
                router.note_write(1, "a", nbytes=100)  # shard 0
            router.note_write(2, "b", nbytes=40)       # shard 1
            router.note_write(2, "b")                  # size-less write
            assert router.window_byte_loads() == {0: 300, 1: 40}
            assert router.window_object_bytes() == {1: 300, 2: 40}
            # ... but the count window still sees every write.
            assert router.window_loads() == {0: 3, 1: 2}
            router.move(1, 1)
            assert router.window_byte_loads() == {0: 0, 1: 340}
            assert router.window_object_bytes(shard=1) == {1: 300, 2: 40}
            router.reset_window()
            assert router.window_byte_loads() == {0: 0, 1: 0}
            assert router.window_object_bytes() == {}

    def test_add_shard_prefers_seatless_live_nodes(self):
        with Cluster(ClusterConfig(num_nodes=4, seed=1)) as cluster:
            router = ShardRouter(cluster, num_shards=2)  # seats 0, 1
            cluster.node(2).crash()
            shard = router.add_shard()
            assert shard == 2
            assert router.num_shards == 3
            assert router.sequencer_nodes() == [0, 1, 3]
            assert router.placement_epoch == 1
            # Hash placement grew with the shard set.
            assert router.policy.num_shards == 3

    def test_add_shard_rejects_dead_explicit_seat(self):
        with Cluster(ClusterConfig(num_nodes=2, seed=1)) as cluster:
            cluster.node(1).crash()
            router = ShardRouter(cluster)
            with pytest.raises(ConfigurationError):
                router.add_shard(sequencer_node_id=1)


class TestRebalancePlanner:
    def make_router(self, num_shards=2):
        cluster = Cluster(ClusterConfig(num_nodes=4, seed=1))
        return cluster, ShardRouter(cluster, num_shards=num_shards)

    def test_balanced_or_thin_windows_produce_no_moves(self):
        cluster, router = self.make_router()
        with cluster:
            planner = RebalancePlanner(router, min_writes=8)
            assert planner.plan() == []  # no traffic at all
            for obj, name in ((1, "a"), (2, "b")):
                for _ in range(10):
                    router.note_write(obj, name)
            assert planner.plan() == []  # balanced
            assert planner.suggest(1) is None

    def test_plan_moves_hot_objects_without_overshooting(self):
        cluster, router = self.make_router()
        with cluster:
            # Shard 0 carries a monolith (16) and a medium object (6);
            # shard 1 carries 8.  The deficit is 14, so relocating the
            # monolith would leave the destination hotter than the source
            # was (16 >= 14) — the medium object moves instead.
            for _ in range(16):
                router.note_write(1, "mono")
            for _ in range(6):
                router.note_write(3, "mid")
            for _ in range(8):
                router.note_write(2, "cool")
            planner = RebalancePlanner(router, imbalance=1.5, min_writes=8)
            moves = planner.plan()
            assert moves == [RebalanceMove(obj_id=3, src=0, dst=1)]
            # suggest() agrees per object.
            assert planner.suggest(3) == 1
            assert planner.suggest(1) is None  # monolith would overshoot
            assert planner.suggest(2) is None  # not on the hot shard

    def test_monolith_moves_when_it_improves_the_hot_bin(self):
        cluster, router = self.make_router()
        with cluster:
            for _ in range(16):
                router.note_write(1, "mono")
            for _ in range(2):
                router.note_write(3, "small")
            # deficit 18 > 16: relocating the monolith helps.
            router.note_write(2, "cool")
            router._window_shard_writes[1] = 0
            router._window_obj_writes.pop(2, None)
            planner = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                       max_moves=1)
            moves = planner.plan()
            assert moves == [RebalanceMove(obj_id=1, src=0, dst=1)]

    def test_planner_validation(self):
        cluster, router = self.make_router()
        with cluster:
            with pytest.raises(ConfigurationError):
                RebalancePlanner(router, imbalance=1.0)
            with pytest.raises(ConfigurationError):
                RebalancePlanner(router, min_writes=0)
            with pytest.raises(ConfigurationError):
                RebalancePlanner(router, queue_weight=-1.0)
            with pytest.raises(ConfigurationError):
                RebalancePlanner(router, byte_weight=-1.0)

    def test_queue_depth_makes_a_backlogged_shard_hot(self):
        """Cost awareness: equal window writes, but one sequencer is deep in
        backlog — the planner drains the shard that is actually melting."""
        cluster, router = self.make_router()
        with cluster:
            for _ in range(10):
                router.note_write(1, "a")  # shard 0
            for _ in range(10):
                router.note_write(2, "b")  # shard 1
            router.queue_depths = lambda: {0: 12, 1: 0}
            # Pure write counts see a balanced placement...
            blind = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                     queue_weight=0.0)
            assert blind.plan() == []
            # ... queue-weighted scores see shard 0 melting (10+12 vs 10)
            # and move its object off.
            aware = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                     queue_weight=1.0)
            assert aware.plan() == [RebalanceMove(obj_id=1, src=0, dst=1)]

    def test_byte_traffic_makes_a_shard_hot(self):
        """Payload awareness: equal write counts, but one shard's writes
        carry big values — the byte-weighted planner drains it."""
        cluster, router = self.make_router()
        with cluster:
            for _ in range(5):
                router.note_write(1, "fat", nbytes=600)   # shard 0
            for _ in range(5):
                router.note_write(3, "thin")              # shard 0
            for _ in range(10):
                router.note_write(2, "cool")              # shard 1
            # Count-only scores see a balanced placement (10 vs 10)...
            blind = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                     queue_weight=0.0)
            assert blind.plan() == []
            # ... byte-weighted scores see shard 0 carrying 3000 B of
            # payload (10 + 30 vs 10).  The fat object itself would
            # overshoot (weight 35 >= deficit 30), so its thin co-resident
            # moves off the byte-hot shard.
            aware = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                     queue_weight=0.0, byte_weight=0.01)
            assert aware.plan() == [RebalanceMove(obj_id=3, src=0, dst=1)]
            assert aware.suggest(3) == 1
            assert aware.suggest(1) is None  # would overshoot

    def test_byte_heavy_monolith_moves_when_it_improves_the_hot_bin(self):
        cluster, router = self.make_router()
        with cluster:
            for _ in range(16):
                router.note_write(1, "mono", nbytes=125)  # 2000 B on shard 0
            for _ in range(2):
                router.note_write(3, "small")
            router.note_write(2, "cool")  # register, then silence shard 1
            router._window_shard_writes[1] = 0
            router._window_obj_writes.pop(2, None)
            # Weight 16 + 20 = 36 < deficit 38: the monolith moves whole.
            planner = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                       max_moves=1, queue_weight=0.0,
                                       byte_weight=0.01)
            assert planner.plan() == [RebalanceMove(obj_id=1, src=0, dst=1)]

    def test_exclude_predicate_damps_churn(self):
        """The controller's per-object cooldown plugs in as an exclusion:
        a recently moved object is skipped, the next candidate moves."""
        cluster, router = self.make_router()
        with cluster:
            for _ in range(10):
                router.note_write(1, "hot")   # shard 0
            for _ in range(6):
                router.note_write(3, "warm")  # shard 0
            for _ in range(2):
                router.note_write(2, "cool")  # shard 1
            planner = RebalancePlanner(router, imbalance=1.5, min_writes=8,
                                       max_moves=1,
                                       exclude=lambda obj_id: obj_id == 1)
            assert planner.plan() == [RebalanceMove(obj_id=3, src=0, dst=1)]


class TestShardedRtsDispatch:
    def test_objects_route_writes_to_their_shard_group(self):
        with Cluster(ClusterConfig(num_nodes=4, seed=5)) as cluster:
            rts = HybridRts(cluster, num_shards=2)
            handles = {}

            def main():
                proc = cluster.sim.current_process
                a = rts.create_object(proc, Reg, (0,), name="a")  # shard 0
                b = rts.create_object(proc, Reg, (0,), name="b")  # shard 1
                handles.update(a=a, b=b)
                for i in range(5):
                    rts.invoke(proc, a, "assign", (i,))
                rts.invoke(proc, b, "assign", (99,))

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            assert rts.shard_of(handles["a"]) == 0
            assert rts.shard_of(handles["b"]) == 1
            assert rts.router.shard_stats[0].writes == 5
            assert rts.router.shard_stats[1].writes == 1
            assert rts.router.shard_stats[0].creates == 1
            assert rts.router.shard_stats[1].creates == 1
            # Both groups actually carried sequenced traffic.
            assert rts.router.group_for(0).stats.deliveries > 0
            assert rts.router.group_for(1).stats.deliveries > 0
            # Replicas are everywhere, regardless of shard.
            for node in cluster.nodes:
                assert rts.manager(node.node_id).get(
                    handles["a"].obj_id).instance.value == 4
                assert rts.manager(node.node_id).get(
                    handles["b"].obj_id).instance.value == 99

    def test_summary_includes_sharding_when_active(self):
        with Cluster(ClusterConfig(num_nodes=2, seed=5)) as cluster:
            rts = HybridRts(cluster, num_shards=2, batching=True)
            summary = rts.read_write_summary()
            assert summary["sharding"]["num_shards"] == 2
            assert summary["batching"]["max_batch"] == BatchingParams().max_batch

    def test_summary_stays_classic_when_unsharded(self):
        with Cluster(ClusterConfig(num_nodes=2, seed=5)) as cluster:
            rts = HybridRts(cluster)
            assert "sharding" not in rts.read_write_summary()
