"""The elasticity loop: rejoin after recovery, planned drain, live scale-in.

PR 5 made the runtime survive crashes; these tests pin the other half of
the loop: a recovered machine catches back up through each group's total
order (seeded copies, re-armed membership, seats handed back), a machine
can leave *gracefully* without a single failure-path event, and the
broadcast-group set can shrink under load — including the autoscaler's
shrink direction and the guards that keep half-rejoined members from
being targeted by moves or relocations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ConfigurationError, RtsError
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 5


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


def make_rts(num_nodes=NUM_NODES, num_shards=2, seed=11, **kwargs):
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast",
                    num_shards=num_shards, **kwargs)
    return cluster, rts


def await_caught_up(rts, proc, node_id, step=0.001, max_polls=5000):
    """Poll until the runtime reports ``node_id`` fully rejoined."""
    for _ in range(max_polls):
        if rts.is_caught_up(node_id):
            return
        proc.hold(step)
    raise AssertionError(f"node {node_id} never caught up")


class TestRejoin:
    def test_recovered_node_reseeds_copies_and_rejoins_the_order(self):
        cluster, rts = make_rts(seed=7)
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for i in range(4):
                handles[i] = rts.create_object(proc, Counter, (0,),
                                               name=f"c{i}")

        def writer(nid, lo, hi):
            proc = cluster.sim.current_process
            for k in range(lo, hi):
                rts.invoke(proc, handles[k % 4], "add", (1,))
                proc.hold(0.0004)

        def churner():
            proc = cluster.sim.current_process
            proc.hold(0.002)
            cluster.node(2).crash()
            proc.hold(0.003)
            cluster.node(2).recover()
            await_caught_up(rts, proc, 2)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        cluster.node(0).kernel.spawn_thread(writer, 0, 0, 20)
        cluster.node(1).kernel.spawn_thread(writer, 1, 20, 40)
        cluster.node(3).kernel.spawn_thread(churner)
        cluster.run()

        # The rejoin completed and reseeded every broadcast copy routed
        # through both groups.
        assert rts.stats.node_rejoins == 1
        record = rts.rejoins[0]
        assert record.completed_at is not None and record.window > 0
        assert record.objects_reseeded == 4
        # The recovered member is a full member of every group again...
        for shard in rts.router.active_shards():
            assert rts.router.group_for(shard).member(2).synced
        # ... with working local copies: its replica values match the
        # cluster-wide totals (40 writes spread over 4 counters).
        totals = {}

        def check():
            proc = cluster.sim.current_process
            for i in range(4):
                totals[i] = rts.invoke(proc, handles[i], "read")
            for i in range(4):
                replica = rts.managers[2].get(handles[i].obj_id)
                assert replica is not None
                assert replica.instance.value == totals[i]

        cluster.node(2).kernel.spawn_thread(check)
        cluster.run()
        assert sum(totals.values()) == 40
        summary = rts.read_write_summary()
        assert summary["elasticity"]["node_rejoins"] == 1
        assert summary["elasticity"]["rejoin_log"] == [(2, 4, 0)]
        cluster.shutdown()

    def test_primary_seat_handed_back_to_heaviest_writer(self):
        cluster, rts = make_rts(seed=13)
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            handles["ledger"] = rts.create_object(
                proc, Counter, (0,), name="ledger", policy="primary-update")
            assert rts.relocate_primary(proc, handles["ledger"], target=3)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()

        def heavy_writer():
            proc = cluster.sim.current_process
            for _ in range(30):
                rts.invoke(proc, handles["ledger"], "add", (1,))
                proc.hold(0.0002)

        def light_writer():
            proc = cluster.sim.current_process
            for _ in range(12):
                rts.invoke(proc, handles["ledger"], "add", (1,))
                proc.hold(0.0004)

        # Phase 1: accumulate the write history (node 3 is the heaviest
        # writer by a wide margin) and let the writers drain — simulated
        # threads on a crashed machine are not torn down, only isolated,
        # so the victim must host no live process when it dies.
        cluster.node(3).kernel.spawn_thread(heavy_writer)
        cluster.node(1).kernel.spawn_thread(light_writer)
        cluster.run()

        def churner():
            proc = cluster.sim.current_process
            cluster.node(3).crash()
            proc.hold(0.002)
            cluster.node(3).recover()
            await_caught_up(rts, proc, 3)

        cluster.node(0).kernel.spawn_thread(churner)
        cluster.run()

        # The crash moved the seat off node 3 (takeover); the rejoin,
        # seeing node 3 is still the object's heaviest writer, moved it
        # back.
        assert rts.stats.primary_recoveries == 1
        assert rts.directory.primary_of(handles["ledger"].obj_id) == 3
        assert rts.stats.seats_handed_back == 1
        assert rts.rejoins[0].seats_handed_back == 1
        cluster.shutdown()

    def test_crash_during_catchup_voids_the_rejoin_and_retries(self):
        """A second crash mid-catch-up kills the stale rejoin (generation
        bump); the next recovery starts a fresh one that completes."""
        cluster, rts = make_rts(seed=23)
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for i in range(3):
                handles[i] = rts.create_object(proc, Counter, (0,),
                                               name=f"c{i}")

        def writer(nid):
            proc = cluster.sim.current_process
            for k in range(25):
                rts.invoke(proc, handles[k % 3], "add", (1,))
                proc.hold(0.0004)

        def churner():
            proc = cluster.sim.current_process
            proc.hold(0.002)
            cluster.node(2).crash()
            proc.hold(0.001)
            cluster.node(2).recover()
            # Kill it again immediately — almost certainly mid-catch-up.
            proc.hold(0.0002)
            cluster.node(2).crash()
            proc.hold(0.002)
            cluster.node(2).recover()
            await_caught_up(rts, proc, 2)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        cluster.node(0).kernel.spawn_thread(writer, 0)
        cluster.node(1).kernel.spawn_thread(writer, 1)
        cluster.node(3).kernel.spawn_thread(churner)
        cluster.run()

        # Only completed rejoins count; the voided one left no zombie.
        assert rts.stats.node_rejoins >= 1
        assert rts.is_caught_up(2)
        assert all(rts.is_caught_up(n.node_id) for n in cluster.nodes)

        def check():
            proc = cluster.sim.current_process
            total = sum(rts.invoke(proc, handles[i], "read")
                        for i in range(3))
            assert total == 50

        cluster.node(0).kernel.spawn_thread(check)
        cluster.run()
        cluster.shutdown()

    def test_lost_seed_is_re_requested_from_a_donor(self):
        """The first seed to reach the rejoining member is lost: its rejoin
        thread re-requests it after a retry timeout, a donor answers with
        a fresh seed, and the member ends caught up."""
        cluster, rts = make_rts(seed=7)
        membership = rts.membership
        calls = {"seeds": 0, "requests": 0, "answers": 0}
        on_seed = membership._on_seed
        request_seed = membership._request_seed
        on_seed_request = membership._on_seed_request

        def lossy_on_seed(node_id, payload):
            calls["seeds"] += 1
            if calls["seeds"] > 1:
                on_seed(node_id, payload)

        def counted_request(*args):
            calls["requests"] += 1
            request_seed(*args)

        def counted_answer(*args):
            calls["answers"] += 1
            on_seed_request(*args)

        membership._on_seed = lossy_on_seed
        membership._request_seed = counted_request
        membership._on_seed_request = counted_answer
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for i in range(4):
                handles[i] = rts.create_object(proc, Counter, (0,),
                                               name=f"c{i}")

        def writer(lo, hi):
            proc = cluster.sim.current_process
            for k in range(lo, hi):
                rts.invoke(proc, handles[k % 4], "add", (1,))
                proc.hold(0.0004)

        def churner():
            proc = cluster.sim.current_process
            proc.hold(0.002)
            cluster.node(2).crash()
            proc.hold(0.003)
            cluster.node(2).recover()

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        start = cluster.sim.now
        cluster.node(0).kernel.spawn_thread(writer, 0, 20)
        cluster.node(1).kernel.spawn_thread(writer, 20, 40)
        cluster.node(3).kernel.spawn_thread(churner)
        # Bounded: a re-request nobody answers would retry forever.
        cluster.run(until=start + 1.0)

        assert calls["requests"] >= 1 and calls["answers"] >= 1
        assert calls["seeds"] >= 3  # one per group, plus the re-sent one
        assert rts.is_caught_up(2)
        assert rts.stats.node_rejoins == 1
        # The rejoined copies equal the lowest donor's, state and version.
        for handle in handles.values():
            mine = rts.managers[2].get(handle.obj_id)
            donor = rts.managers[0].get(handle.obj_id)
            assert mine.instance.value == donor.instance.value
            assert mine.version == donor.version
        assert sum(rts.managers[2].get(h.obj_id).instance.value
                   for h in handles.values()) == 40
        cluster.shutdown()


class TestCatchupGuards:
    """Alive-but-not-caught-up nodes must not be targeted by the movers."""

    def test_relocate_and_move_abort_while_target_catches_up(self):
        cluster, rts = make_rts(seed=17)
        handles = {}
        results = {}

        def setup():
            proc = cluster.sim.current_process
            handles["seat"] = rts.create_object(
                proc, Counter, (0,), name="seat", policy="primary-update")
            handles["shared"] = rts.create_object(proc, Counter, (0,),
                                                  name="shared")
            for _ in range(5):
                rts.invoke(proc, handles["shared"], "add", (1,))

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        origin_shard = rts.shard_of(handles["shared"])

        def scenario():
            proc = cluster.sim.current_process
            cluster.node(2).crash()
            proc.hold(0.001)
            cluster.node(2).recover()
            # The recovery listener marked node 2 as catching up
            # synchronously; both movers must bow out cleanly now.
            assert not rts.is_caught_up(2)
            results["relocate"] = rts.relocate_primary(
                proc, handles["seat"], target=2)
            results["move"] = rts.move_shard(
                proc, handles["shared"], 1 - origin_shard)
            results["primary_during"] = rts.directory.primary_of(
                handles["seat"].obj_id)
            await_caught_up(rts, proc, 2)
            # Caught up: the same calls go through.
            results["relocate_after"] = rts.relocate_primary(
                proc, handles["seat"], target=2)
            results["move_after"] = rts.move_shard(
                proc, handles["shared"], 1 - origin_shard)

        cluster.node(0).kernel.spawn_thread(scenario)
        cluster.run()
        assert results["relocate"] is False
        assert results["move"] is False
        assert results["primary_during"] != 2
        assert results["relocate_after"] is True
        assert results["move_after"] is True
        assert rts.directory.primary_of(handles["seat"].obj_id) == 2
        assert rts.shard_of(handles["shared"]) == 1 - origin_shard
        cluster.shutdown()


class TestGrowCap:
    def test_autoscaler_growth_stops_at_live_node_count(self):
        """grow_to=8 on a cluster with 3 live machines caps at 3 groups:
        every group needs a sequencer seat on a live node."""
        cluster, rts = make_rts(num_nodes=4, num_shards=1, seed=19,
                                rebalance={"interval": 0.002,
                                           "imbalance": 1.3,
                                           "min_writes": 8,
                                           "grow_to": 8})
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for i in range(4):
                handles[i] = rts.create_object(proc, Counter, (0,),
                                               name=f"c{i}")

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        cluster.node(3).crash()

        def client(nid):
            proc = cluster.sim.current_process
            for k in range(50):
                rts.invoke(proc, handles[k % 4], "add", (1,))
                proc.hold(0.0003)

        for nid in (0, 1, 2):
            cluster.node(nid).kernel.spawn_thread(client, nid)
        cluster.run()
        assert rts.router.num_active_shards == 3
        assert rts.stats.shards_added == 2
        cluster.shutdown()


class TestNoAutoshrink:
    def test_controller_keeps_idle_groups(self):
        """The controller never merges a group away on its own: with
        traffic pinned to two of four groups, all four stay active and only
        an explicit remove_shard would retire one."""
        cluster, rts = make_rts(num_nodes=4, num_shards=4, seed=29,
                                placement={"hot0": 0, "hot1": 1},
                                rebalance={"interval": 0.002,
                                           "imbalance": 1e9,
                                           "min_writes": 10**9})
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            for name in ("hot0", "hot1"):
                handles[name] = rts.create_object(proc, Counter, (0,),
                                                  name=name)

        def client(nid):
            proc = cluster.sim.current_process
            for k in range(60):
                name = "hot0" if k % 2 else "hot1"
                rts.invoke(proc, handles[name], "add", (1,))
                proc.hold(0.0003)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            node.kernel.spawn_thread(client, node.node_id)
        cluster.run()
        assert rts.router.num_active_shards == 4
        assert rts.stats.shards_removed == 0
        assert rts.removed_shards == []

        def check():
            proc = cluster.sim.current_process
            total = sum(rts.invoke(proc, handles[n], "read")
                        for n in handles)
            assert total == 4 * 60

        cluster.node(0).kernel.spawn_thread(check)
        cluster.run()
        cluster.shutdown()


class TestDrainNode:
    def test_drain_evacuates_every_seat_without_a_single_failure(self):
        """The drain claim: primary and sequencer seats move, the machine
        retires — and the failure path never fires (no takeover, no
        election, no re-issued write)."""
        cluster, rts = make_rts(seed=31)
        handles = {}
        drained = {}

        def setup():
            proc = cluster.sim.current_process
            handles["log"] = rts.create_object(
                proc, AppendLog, name="log", policy="primary-update")
            handles["shared"] = rts.create_object(proc, AppendLog,
                                                  name="shared")
            # Node 0 seats both shard sequencers *and* the primary copy
            # (the creator's node holds a fresh primary seat already).
            if rts.directory.primary_of(handles["log"].obj_id) != 0:
                assert rts.relocate_primary(proc, handles["log"], target=0)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        elections_before = sum(rts.router.group_for(s).stats.elections
                               for s in rts.router.active_shards())

        def writer(nid):
            proc = cluster.sim.current_process
            for k in range(30):
                handle = handles["log"] if k % 2 else handles["shared"]
                rts.invoke(proc, handle, "append", ((nid, k),))
                proc.hold(0.0003)

        def drainer():
            proc = cluster.sim.current_process
            proc.hold(0.004)
            drained["ok"] = rts.drain_node(proc, 0)

        for nid in (1, 2, 3, 4):
            cluster.node(nid).kernel.spawn_thread(writer, nid)
        cluster.node(1).kernel.spawn_thread(drainer)
        cluster.run()

        assert drained["ok"] is True
        assert not cluster.node(0).alive
        assert rts.stats.nodes_drained == 1
        record = rts.drains[0]
        assert record.completed_at is not None
        assert record.primary_seats_moved == 1
        # Node 0 seats shard 0's sequencer (shard 1's sits on node 1).
        assert record.sequencer_seats_moved == 1
        # Zero failure-path events: a drain is not a crash.
        assert rts.stats.primary_recoveries == 0 and not rts.recoveries
        elections_after = sum(rts.router.group_for(s).stats.elections
                              for s in rts.router.active_shards())
        assert elections_after == elections_before
        # Exactly-once, per-writer FIFO on both logs.
        new_primary = rts.directory.primary_of(handles["log"].obj_id)
        assert new_primary != 0
        for key, holder in (("log", new_primary), ("shared", 1)):
            items = rts.managers[holder].get(
                handles[key].obj_id).instance.items
            per_writer = {}
            for nid, k in items:
                per_writer.setdefault(nid, []).append(k)
            assert sorted(per_writer) == [1, 2, 3, 4]
            for ks in per_writer.values():
                assert ks == sorted(ks) and len(ks) == 15
        cluster.shutdown()

    def test_drain_rejects_dead_catching_up_and_last_nodes(self):
        cluster, rts = make_rts(seed=37)
        handles = {}
        caught = {}

        def setup():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(proc, Counter, (0,), name="c")
            for _ in range(4):
                rts.invoke(proc, handles["c"], "add", (1,))

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()

        def scenario():
            proc = cluster.sim.current_process
            cluster.node(2).crash()
            with pytest.raises(RtsError, match="crash recovery owns"):
                rts.drain_node(proc, 2)
            cluster.node(2).recover()
            assert not rts.is_caught_up(2)
            with pytest.raises(RtsError, match="catching up"):
                rts.drain_node(proc, 2)
            await_caught_up(rts, proc, 2)
            # Drain everything but one machine; the survivor must refuse.
            for nid in (0, 1, 2, 3):
                assert rts.drain_node(proc, nid)
            with pytest.raises(RtsError, match="last live machine"):
                rts.drain_node(proc, 4)

        cluster.node(4).kernel.spawn_thread(scenario)
        cluster.run()
        assert rts.stats.nodes_drained == 4
        assert [n.node_id for n in cluster.nodes if n.alive] == [4]
        cluster.shutdown()


class TestRemoveShard:
    def test_remove_merges_groups_under_live_writers(self):
        """Shrink 4 groups to 2 while writers keep appending: every object
        evacuates through its group's total order, exactly once."""
        cluster, rts = make_rts(num_nodes=4, num_shards=4, seed=41)
        handles = {}
        removed = {}

        def setup():
            proc = cluster.sim.current_process
            for i in range(8):
                handles[i] = rts.create_object(proc, AppendLog,
                                               name=f"log{i}")

        def writer(nid):
            proc = cluster.sim.current_process
            for k in range(24):
                rts.invoke(proc, handles[k % 8], "append", ((nid, k),))
                proc.hold(0.0003)

        def shrinker():
            proc = cluster.sim.current_process
            proc.hold(0.003)
            removed["first"] = rts.remove_shard(proc, 3)
            proc.hold(0.002)
            removed["second"] = rts.remove_shard(proc, 2)

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            node.kernel.spawn_thread(writer, node.node_id)
        cluster.node(0).kernel.spawn_thread(shrinker)
        cluster.run()

        assert removed == {"first": True, "second": True}
        assert rts.router.num_active_shards == 2
        assert rts.router.active_shards() == [0, 1]
        assert rts.stats.shards_removed == 2
        # Every object now routes through a surviving group.
        for handle in handles.values():
            assert rts.shard_of(handle) in (0, 1)
        # Exactly-once, per-writer FIFO across the merges.
        def check():
            proc = cluster.sim.current_process
            for i in range(8):
                items = rts.invoke(proc, handles[i], "snapshot")
                per_writer = {}
                for nid, k in items:
                    per_writer.setdefault(nid, []).append(k)
                for ks in per_writer.values():
                    assert ks == sorted(ks) and len(ks) == len(set(ks))
            total = sum(len(rts.invoke(proc, handles[i], "snapshot"))
                        for i in range(8))
            assert total == 4 * 24

        cluster.node(0).kernel.spawn_thread(check)
        cluster.run()
        cluster.shutdown()

    def test_remove_shard_bounds_and_last_group(self):
        cluster, rts = make_rts(num_nodes=4, num_shards=2, seed=43)
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(proc, Counter, (0,), name="c")
            rts.invoke(proc, handles["c"], "add", (1,))

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()

        def scenario():
            proc = cluster.sim.current_process
            with pytest.raises(ConfigurationError):
                rts.remove_shard(proc, 9)
            assert rts.remove_shard(proc, 1) is True
            assert rts.remove_shard(proc, 1) is False  # already retired
            with pytest.raises(ConfigurationError, match="last"):
                rts.remove_shard(proc, 0)

        cluster.node(0).kernel.spawn_thread(scenario)
        cluster.run()
        assert rts.router.num_active_shards == 1
        cluster.shutdown()


def run_churn_property(seed, first_crash, dwell, second_gap):
    """Crash -> recover -> crash churn over mixed-policy logs.

    Clients on nodes 0-2 write round-robin over one log per policy; node 4
    (hosting the primary seats) is crashed, recovered and crashed again on
    the given schedule.  Returns per-(object, client) sequences for the
    exactly-once / FIFO assertions.
    """
    cluster = Cluster(ClusterConfig(num_nodes=5, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=2)
    policies = ("primary-update", "primary-invalidate", "broadcast",
                "adaptive")
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        for policy in policies:
            handles[policy] = rts.create_object(
                proc, AppendLog, name=f"log-{policy}", policy=policy)
        for policy in ("primary-update", "primary-invalidate"):
            rts.relocate_primary(proc, handles[policy], target=4)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()

    def client(nid, cid):
        proc = cluster.sim.current_process
        for k in range(16):
            handle = handles[policies[k % len(policies)]]
            rts.invoke(proc, handle, "append", ((nid, cid, k),))
            proc.hold(0.0004)

    def churner():
        proc = cluster.sim.current_process
        proc.hold(first_crash)
        cluster.node(4).crash()
        proc.hold(dwell)
        cluster.node(4).recover()
        proc.hold(second_gap)
        if cluster.node(4).alive:
            cluster.node(4).crash()
            proc.hold(0.003)
            cluster.node(4).recover()
        await_caught_up(rts, proc, 4)

    for nid in (0, 1, 2):
        for cid in range(2):
            cluster.node(nid).kernel.spawn_thread(client, nid, cid)
    cluster.node(3).kernel.spawn_thread(churner)
    cluster.run()

    state = {"per_obj": {}}
    for policy in policies:
        holder = (rts.directory.primary_of(handles[policy].obj_id)
                  if rts._mechanism_of(handles[policy].obj_id) == "primary"
                  else 0)
        items = rts.managers[holder].get(handles[policy].obj_id).instance.items
        state["per_obj"][policy] = list(items)
    state["caught_up"] = rts.is_caught_up(4)
    cluster.shutdown()
    return state


class TestChurnProperties:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           first_crash=st.sampled_from((0.002, 0.004, 0.006)),
           dwell=st.sampled_from((0.001, 0.003)),
           second_gap=st.sampled_from((0.0003, 0.002, 0.006)))
    def test_churned_cluster_keeps_exactly_once_fifo(self, seed, first_crash,
                                                     dwell, second_gap):
        state = run_churn_property(seed, first_crash, dwell, second_gap)
        assert state["caught_up"]
        for policy, items in state["per_obj"].items():
            per_client = {}
            for nid, cid, k in items:
                per_client.setdefault((nid, cid), []).append(k)
            # Exactly once: every client's 4 writes to this object landed,
            # none twice; FIFO: in issue order.
            assert len(per_client) == 6, (policy, per_client)
            for ks in per_client.values():
                assert ks == sorted(ks), (policy, ks)
                assert len(ks) == len(set(ks)) == 4, (policy, ks)
