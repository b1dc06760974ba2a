"""Property-based tests for write batching (and its interplay with sharding).

The batching layer must be *behaviour-preserving*: for any interleaving of
clients, running the same workload batched and unbatched must produce the
same final object states, apply every client's writes in that client's issue
order (per-node FIFO), and keep every machine's replica identical.  These
properties are checked over randomized workloads driven by seeded rngs, so
every failure reproduces deterministically.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.hybrid import HybridRts
from repro.rts.consistency import ConsistencyChecker
from repro.rts.object_model import ObjectSpec, operation

NUM_COUNTERS = 4


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


class AppendLog(ObjectSpec):
    """An order-sensitive object: the applied write order IS its state."""

    def init(self):
        self.items = []

    @operation(write=True)
    def append(self, item):
        self.items.append(item)
        return len(self.items)

    @operation(write=False)
    def snapshot(self):
        return list(self.items)


def run_workload(seed, batching, num_shards, num_nodes=4, clients_per_node=2,
                 ops_per_client=12):
    """Run one randomized multi-writer workload; returns its observable state.

    The per-client request streams depend only on ``seed`` (not on batching
    or sharding), so two runs with different runtime configuration issue
    exactly the same operations.
    """
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    rts = HybridRts(cluster, num_shards=num_shards, batching=batching,
                    record_history=True)
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        handles["log"] = rts.create_object(proc, AppendLog, name="log")
        for i in range(NUM_COUNTERS):
            handles[i] = rts.create_object(proc, Counter, (0,), name=f"c{i}")

    def client(node_id, client_id):
        proc = cluster.sim.current_process
        rng = random.Random(f"{seed}/{node_id}/{client_id}")
        for k in range(ops_per_client):
            if rng.random() < 0.5:
                rts.invoke(proc, handles[rng.randrange(NUM_COUNTERS)],
                           "add", (1,))
            else:
                rts.invoke(proc, handles["log"], "append",
                           ((node_id, client_id, k),))
            if rng.random() < 0.3:
                proc.hold(rng.random() * 0.002)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    for node in cluster.nodes:
        for client_id in range(clients_per_node):
            node.kernel.spawn_thread(client, node.node_id, client_id)
    cluster.run()

    counters = {}
    logs = {}
    for node in cluster.nodes:
        manager = rts.manager(node.node_id)
        counters[node.node_id] = tuple(
            manager.get(handles[i].obj_id).instance.value
            for i in range(NUM_COUNTERS))
        logs[node.node_id] = tuple(
            tuple(item) for item in manager.get(handles["log"].obj_id).instance.items)
    shard_stats = {s: stats.summary()
                   for s, stats in rts.router.shard_stats.items()}
    result = {
        "counters": counters,
        "logs": logs,
        "history": rts.history,
        "shard_stats": shard_stats,
    }
    cluster.shutdown()
    return result


def assert_replicas_agree(result):
    counters = list(result["counters"].values())
    logs = list(result["logs"].values())
    assert all(c == counters[0] for c in counters), result["counters"]
    assert all(log == logs[0] for log in logs), result["logs"]


def assert_per_client_fifo(result, ops_per_client):
    """Every client's appends appear in the applied log in issue order."""
    log = next(iter(result["logs"].values()))
    per_client = {}
    for node_id, client_id, k in log:
        per_client.setdefault((node_id, client_id), []).append(k)
    for client, ks in per_client.items():
        assert ks == sorted(ks), (
            f"client {client} writes applied out of issue order: {ks}")
        assert len(ks) == len(set(ks)), f"client {client} write applied twice"


class TestBatchingProperties:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           num_shards=st.sampled_from([1, 2, 3]),
           max_batch=st.sampled_from([2, 4, 8]),
           flush_delay=st.sampled_from([0.0, 0.0005]))
    def test_batched_equals_unbatched(self, seed, num_shards, max_batch,
                                      flush_delay):
        """Random seeds: interleave batched and unbatched runs; the final
        object states and per-client write order must match."""
        batched = run_workload(seed, {"max_batch": max_batch,
                                      "flush_delay": flush_delay}, num_shards)
        unbatched = run_workload(seed, None, num_shards)

        for result in (batched, unbatched):
            assert_replicas_agree(result)
            assert_per_client_fifo(result, ops_per_client=12)
            ConsistencyChecker(result["history"]).check_write_order_agreement()

        # Order-insensitive state is identical; the order-sensitive log holds
        # exactly the same writes (the global interleaving may legitimately
        # differ between the two executions, per-client order may not).
        ref = next(iter(unbatched["counters"].values()))
        assert next(iter(batched["counters"].values())) == ref
        batched_log = next(iter(batched["logs"].values()))
        unbatched_log = next(iter(unbatched["logs"].values()))
        assert sorted(batched_log) == sorted(unbatched_log)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_seed_reproduces_identical_state(self, seed):
        """Batched runs are deterministic: same seed, same everything."""
        config = {"max_batch": 4, "flush_delay": 0.0005}
        first = run_workload(seed, config, num_shards=2)
        second = run_workload(seed, config, num_shards=2)
        assert first["counters"] == second["counters"]
        assert first["logs"] == second["logs"]
        assert first["shard_stats"] == second["shard_stats"]
        assert first["history"].writes == second["history"].writes


class TestBatchingMechanics:
    def test_size_threshold_flushes_full_batches(self):
        """With a huge time window, the size threshold alone must flush."""
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=3))
        rts = HybridRts(cluster, batching={"max_batch": 3,
                                           "flush_delay": 5.0})
        with cluster:
            handles = {}

            def setup():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Counter, (0,), name="c")

            def writer():
                proc = cluster.sim.current_process
                rts.invoke(proc, handles["c"], "add", (1,))

            cluster.node(0).kernel.spawn_thread(setup)
            cluster.run()
            for _ in range(3):
                cluster.node(1).kernel.spawn_thread(writer)
            elapsed_start = cluster.sim.now
            cluster.run()
            stats = rts.router.shard_stats[0]
            assert stats.max_batch == 3
            assert stats.batched_ops == 3
            # The batch went out on the size threshold, not the 5 s timer.
            assert cluster.sim.now - elapsed_start < 1.0
            value = rts.manager(0).get(handles["c"].obj_id).instance.value
            assert value == 3

    def test_time_threshold_flushes_partial_batches(self):
        """A lone write must not wait for a full batch: the timer flushes it."""
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=3))
        rts = HybridRts(cluster, batching={"max_batch": 64,
                                           "flush_delay": 0.01})
        with cluster:
            handles = {}
            times = {}

            def setup():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Counter, (0,), name="c")

            def writer():
                proc = cluster.sim.current_process
                start = proc.local_time
                rts.invoke(proc, handles["c"], "add", (1,))
                times["latency"] = proc.local_time - start

            cluster.node(0).kernel.spawn_thread(setup)
            cluster.run()
            cluster.node(1).kernel.spawn_thread(writer)
            cluster.run()
            assert rts.manager(0).get(handles["c"].obj_id).instance.value == 1
            # The write waited out the flush window, then completed.
            assert times["latency"] >= 0.01

    def test_batching_reduces_ordered_broadcasts(self):
        """Concurrent same-shard writers produce fewer sequenced messages
        when batching is on."""
        def deliveries(batching):
            cluster = Cluster(ClusterConfig(num_nodes=4, seed=9))
            rts = HybridRts(cluster, batching=batching)
            with cluster:
                handles = {}

                def setup():
                    proc = cluster.sim.current_process
                    handles["c"] = rts.create_object(proc, Counter, (0,),
                                                     name="c")

                def writer():
                    proc = cluster.sim.current_process
                    for _ in range(10):
                        rts.invoke(proc, handles["c"], "add", (1,))

                cluster.node(0).kernel.spawn_thread(setup)
                cluster.run()
                for node in cluster.nodes:
                    for _ in range(3):
                        node.kernel.spawn_thread(writer)
                cluster.run()
                value = rts.manager(0).get(handles["c"].obj_id).instance.value
                assert value == 120
                return rts.group.stats.deliveries

        batched = deliveries({"max_batch": 8, "flush_delay": 0.0})
        unbatched = deliveries(None)
        assert batched < unbatched


class TestBatchAwareFlowControl:
    """The backpressure knob: senders back off from a drowning sequencer."""

    def run_overload(self, backpressure_depth):
        """A write burst against a drowning sequencer (5 ms service time,
        deep enough that queued messages outlive the senders' retry
        timers); returns observable state plus queue/retry statistics."""
        from repro.config import CostModel

        cost = CostModel().with_overrides(cpu={"sequencing_cost": 5.0e-3})
        cluster = Cluster(ClusterConfig(num_nodes=8, seed=13, cost_model=cost))
        rts = HybridRts(cluster, batching={
            "max_batch": 4, "flush_delay": 0.0,
            "backpressure_depth": backpressure_depth,
        })
        handles = {}

        def setup():
            proc = cluster.sim.current_process
            handles["log"] = rts.create_object(proc, AppendLog, name="log")

        def client(node_id, client_id):
            proc = cluster.sim.current_process
            for k in range(15):
                rts.invoke(proc, handles["log"], "append",
                           ((node_id, client_id, k),))

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        for node in cluster.nodes:
            for client_id in range(3):
                node.kernel.spawn_thread(client, node.node_id, client_id)
        cluster.run()
        state = {
            "log": [tuple(item) for item in
                    rts.manager(0).get(handles["log"].obj_id).instance.items],
            "max_queue_depth": rts.group.sequencer.max_queue_depth,
            "holds": rts.stats.flow_control_holds,
            "elections": rts.group.stats.elections,
            "retransmits": rts.group.stats.retransmit_requests,
            "batches": rts.stats.batches_sent,
            "summary": rts.read_write_summary(),
        }
        cluster.shutdown()
        return state

    def test_backpressure_stops_the_retry_spiral(self):
        uncontrolled = self.run_overload(None)
        controlled = self.run_overload(2)
        # Same writes, applied exactly once, in per-client order, each way.
        for state in (uncontrolled, controlled):
            per_client = {}
            for node_id, client_id, k in state["log"]:
                per_client.setdefault((node_id, client_id), []).append(k)
            assert len(state["log"]) == 8 * 3 * 15
            for ks in per_client.values():
                assert ks == list(range(15))
            assert state["elections"] == 0
        # Without the knob, queued batches outlive their senders' retry
        # timers: hundreds of spurious (duplicate-suppressed) retransmits
        # pour extra work onto the already-drowning sequencer.
        assert uncontrolled["retransmits"] > 100
        # With it, senders hold ready batches instead: the queue stays
        # shallow, the retry path stays essentially untriggered, and the
        # same writes ride fewer, larger batches.
        assert controlled["holds"] > 0
        assert controlled["retransmits"] < uncontrolled["retransmits"] / 5
        assert controlled["max_queue_depth"] < uncontrolled["max_queue_depth"] / 2
        assert controlled["batches"] < uncontrolled["batches"]
        assert controlled["summary"]["flow_control_holds"] == controlled["holds"]

    def test_knob_is_inert_without_a_queueing_sequencer(self):
        """With sequencing_cost 0 the queue never forms; the knob no-ops."""
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=13))
        rts = HybridRts(cluster, batching={"max_batch": 4,
                                           "backpressure_depth": 2})
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Counter, (0,), name="c")
                for _ in range(20):
                    rts.invoke(proc, handles["c"], "add", (1,))
                assert rts.invoke(proc, handles["c"], "read") == 20

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            assert rts.stats.flow_control_holds == 0
