"""Tests for the broadcast runtime system (full replication, ordered updates)."""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.rts.hybrid import HybridRts
from repro.rts.consistency import ConsistencyChecker
from repro.rts.object_model import ObjectSpec, operation


class Register(ObjectSpec):
    def init(self, value=0):
        self.value = value

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def assign(self, value):
        self.value = value
        return value

    @operation(write=True)
    def add(self, delta):
        self.value += delta
        return self.value


class Queue(ObjectSpec):
    def init(self):
        self.items = []
        self.closed = False

    @operation(write=True)
    def put(self, item):
        self.items.append(item)
        return len(self.items)

    @operation(write=True, guard=lambda self: bool(self.items) or self.closed)
    def get(self):
        if self.items:
            return self.items.pop(0)
        return None

    @operation(write=True)
    def close(self):
        self.closed = True

    @operation(write=False)
    def size(self):
        return len(self.items)


def make_rts(n=4, seed=2, record_history=False, loss_rate=0.0):
    cost_model = CostModel().with_overrides(network={"loss_rate": loss_rate})
    cluster = Cluster(ClusterConfig(num_nodes=n, seed=seed, cost_model=cost_model))
    return cluster, HybridRts(cluster, default_policy="broadcast",
                              record_history=record_history)


class TestBroadcastRtsBasics:
    def test_object_replicated_on_all_nodes(self):
        cluster, rts = make_rts(4)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (5,), name="reg")

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            handle = handles["reg"]
            for node in cluster.nodes:
                assert rts.manager(node.node_id).has_valid_copy(handle.obj_id)
                replica = rts.manager(node.node_id).get(handle.obj_id)
                assert replica.instance.value == 5

    def test_reads_generate_no_network_traffic(self):
        cluster, rts = make_rts(3)
        with cluster:
            results = []

            def main():
                proc = cluster.sim.current_process
                handle = rts.create_object(proc, Register, (7,))
                baseline = cluster.network.stats.messages_sent
                for _ in range(100):
                    results.append(rts.invoke(proc, handle, "read"))
                results.append(cluster.network.stats.messages_sent - baseline)

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            assert results[:100] == [7] * 100
            assert results[100] == 0
            assert rts.stats.local_reads == 100

    def test_write_updates_every_replica(self):
        cluster, rts = make_rts(4)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handle = rts.create_object(proc, Register, (0,))
                handles["reg"] = handle
                rts.invoke(proc, handle, "assign", (42,))

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            for node in cluster.nodes:
                replica = rts.manager(node.node_id).get(handles["reg"].obj_id)
                assert replica.instance.value == 42
                assert replica.version == 1

    def test_write_returns_operation_result(self):
        cluster, rts = make_rts(2)
        with cluster:
            results = []

            def main():
                proc = cluster.sim.current_process
                handle = rts.create_object(proc, Register, (10,))
                results.append(rts.invoke(proc, handle, "add", (5,)))
                results.append(rts.invoke(proc, handle, "add", (3,)))

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            assert results == [15, 18]

    def test_writes_cost_more_time_than_reads(self):
        """From a machine that is not the sequencer, a write (two network hops)
        is far more expensive than a local read."""
        cluster, rts = make_rts(4)
        with cluster:
            durations = {}
            handles = {}

            def creator():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))

            def user():
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.001)
                handle = handles["reg"]
                start = proc.local_time
                for _ in range(10):
                    rts.invoke(proc, handle, "read")
                durations["reads"] = proc.local_time - start
                proc.flush()
                start = cluster.sim.now
                for i in range(10):
                    rts.invoke(proc, handle, "assign", (i,))
                durations["writes"] = cluster.sim.now - start

            cluster.node(0).kernel.spawn_thread(creator)
            cluster.node(2).kernel.spawn_thread(user)
            cluster.run()
            assert durations["writes"] > 5 * durations["reads"]

    def test_concurrent_writers_from_different_nodes(self):
        cluster, rts = make_rts(4)
        with cluster:
            handles = {}
            done = []

            def main():
                proc = cluster.sim.current_process
                handle = rts.create_object(proc, Register, (0,))
                handles["reg"] = handle

            def writer(node_id, count):
                proc = cluster.sim.current_process
                handle = handles["reg"]
                for _ in range(count):
                    rts.invoke(proc, handle, "add", (1,))
                done.append(node_id)

            cluster.node(0).kernel.spawn_thread(main)
            cluster.run()
            for node in cluster.nodes:
                node.kernel.spawn_thread(writer, node.node_id, 25)
            cluster.run()
            assert len(done) == 4
            for node in cluster.nodes:
                replica = rts.manager(node.node_id).get(handles["reg"].obj_id)
                assert replica.instance.value == 100
                assert replica.version == 100

    def test_remote_node_sees_created_object(self):
        """A process on another machine can use an object created elsewhere,
        even if it starts before the create broadcast arrives."""
        cluster, rts = make_rts(3)
        with cluster:
            handles = {}
            observed = []

            def creator():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (123,))

            def reader():
                proc = cluster.sim.current_process
                # Busy-wait until the handle exists (the creator runs concurrently).
                while "reg" not in handles:
                    proc.hold(0.0001)
                observed.append(rts.invoke(proc, handles["reg"], "read"))

            cluster.node(0).kernel.spawn_thread(creator)
            cluster.node(2).kernel.spawn_thread(reader)
            cluster.run()
            assert observed == [123]


class TestGuardedOperations:
    def test_guarded_get_blocks_until_put(self):
        cluster, rts = make_rts(3)
        with cluster:
            handles = {}
            log = []

            def main():
                proc = cluster.sim.current_process
                handles["q"] = rts.create_object(proc, Queue)

            def consumer():
                proc = cluster.sim.current_process
                while "q" not in handles:
                    proc.hold(0.0001)
                log.append(("got", rts.invoke(proc, handles["q"], "get"),
                            round(cluster.sim.now, 4)))

            def producer():
                proc = cluster.sim.current_process
                while "q" not in handles:
                    proc.hold(0.0001)
                proc.hold(0.5)
                rts.invoke(proc, handles["q"], "put", ("job",))

            cluster.node(0).kernel.spawn_thread(main)
            cluster.node(1).kernel.spawn_thread(consumer)
            cluster.node(2).kernel.spawn_thread(producer)
            cluster.run()
            assert log[0][1] == "job"
            assert log[0][2] >= 0.5
            assert rts.stats.guard_retries >= 1

    def test_close_releases_blocked_consumers(self):
        cluster, rts = make_rts(3)
        with cluster:
            handles = {}
            got = []

            def main():
                proc = cluster.sim.current_process
                handles["q"] = rts.create_object(proc, Queue)
                proc.hold(0.3)
                rts.invoke(proc, handles["q"], "close")

            def consumer():
                proc = cluster.sim.current_process
                while "q" not in handles:
                    proc.hold(0.0001)
                got.append(rts.invoke(proc, handles["q"], "get"))

            cluster.node(0).kernel.spawn_thread(main)
            cluster.node(1).kernel.spawn_thread(consumer)
            cluster.node(2).kernel.spawn_thread(consumer)
            cluster.run()
            assert got == [None, None]


class TestSequentialConsistency:
    def test_history_checks_pass(self):
        cluster, rts = make_rts(4, record_history=True)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))

            def worker(seedval):
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.0001)
                handle = handles["reg"]
                for i in range(10):
                    rts.invoke(proc, handle, "read")
                    rts.invoke(proc, handle, "add", (seedval,))
                    proc.compute(50)
                    rts.invoke(proc, handle, "read")

            cluster.node(0).kernel.spawn_thread(main)
            for node in cluster.nodes:
                node.kernel.spawn_thread(worker, node.node_id + 1)
            cluster.run()
            checker = ConsistencyChecker(rts.history)
            handle = handles["reg"]
            checker.check_all(replay={handle.obj_id: (Register, (0,))})

    def test_write_order_identical_across_nodes_under_loss(self):
        cluster, rts = make_rts(4, record_history=True, loss_rate=0.1)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))

            def writer(value):
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.0001)
                for i in range(10):
                    rts.invoke(proc, handles["reg"], "add", (value,))

            cluster.node(0).kernel.spawn_thread(main)
            for node in cluster.nodes:
                node.kernel.spawn_thread(writer, node.node_id + 1)
            cluster.run()
            ConsistencyChecker(rts.history).check_write_order_agreement()
            # Final state identical everywhere.
            values = {
                rts.manager(n.node_id).get(handles["reg"].obj_id).instance.value
                for n in cluster.nodes
            }
            assert len(values) == 1
