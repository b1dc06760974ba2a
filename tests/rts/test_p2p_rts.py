"""Tests for the point-to-point runtime system (primary copy, inv/update, dynamic replication)."""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel, ReplicationParams
from repro.errors import ConfigurationError
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.hybrid import HybridRts


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


def make_rts(n=4, seed=3, protocol="update", dynamic=True, everywhere=False,
             network_type="switched", replication_params=None):
    overrides = {}
    if replication_params is not None:
        overrides["replication"] = replication_params
    cost_model = CostModel().with_overrides(**overrides) if overrides else CostModel()
    cluster = Cluster(ClusterConfig(num_nodes=n, seed=seed, cost_model=cost_model),
                      network_type=network_type)
    rts = HybridRts(cluster, default_policy="primary", protocol=protocol,
                    dynamic_replication=dynamic,
                    replicate_everywhere=everywhere)
    return cluster, rts


def run_program(cluster, bodies):
    """Spawn each (node_id, callable) and run the cluster to completion."""
    for node_id, body in bodies:
        cluster.node(node_id).kernel.spawn_thread(body)
    cluster.run()


class TestCreationAndPlacement:
    def test_primary_lives_on_creating_node(self):
        cluster, rts = make_rts(3)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (1,))

            run_program(cluster, [(2, main)])
            obj_id = handles["reg"].obj_id
            assert rts.directory.primary_of(obj_id) == 2
            assert rts.managers[2].has_valid_copy(obj_id)
            assert not rts.managers[0].has_valid_copy(obj_id)

    def test_unknown_protocol_rejected(self):
        cluster, _ = make_rts(2)
        cluster.shutdown()
        cluster2 = Cluster(ClusterConfig(num_nodes=2, seed=1), network_type="switched")
        with cluster2:
            with pytest.raises(ConfigurationError):
                HybridRts(cluster2, default_policy="primary", protocol="bogus")

    def test_replicate_everywhere_installs_all_copies(self):
        cluster, rts = make_rts(4, everywhere=True, dynamic=False)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (9,))

            run_program(cluster, [(0, main)])
            obj_id = handles["reg"].obj_id
            for node in cluster.nodes:
                assert rts.managers[node.node_id].has_valid_copy(obj_id)
            assert rts.directory.copyset_of(obj_id) == {0, 1, 2, 3}


class TestReadsAndWrites:
    def _setup_shared_register(self, cluster, rts, creator_node=0, value=0):
        handles = {}

        def main():
            proc = cluster.sim.current_process
            handles["reg"] = rts.create_object(proc, Register, (value,))

        run_program(cluster, [(creator_node, main)])
        return handles["reg"]

    def test_remote_read_goes_to_primary(self):
        cluster, rts = make_rts(3, dynamic=False)
        with cluster:
            handle = self._setup_shared_register(cluster, rts, creator_node=0, value=11)
            results = []

            def reader():
                proc = cluster.sim.current_process
                results.append(rts.invoke(proc, handle, "read"))

            run_program(cluster, [(2, reader)])
            assert results == [11]
            assert rts.stats.remote_reads == 1
            assert cluster.network.stats.messages_sent >= 2  # request + reply

    def test_local_read_at_primary_is_free_of_traffic(self):
        cluster, rts = make_rts(3, dynamic=False)
        with cluster:
            handle = self._setup_shared_register(cluster, rts, creator_node=1, value=5)
            baseline = cluster.network.stats.messages_sent
            results = []

            def reader():
                proc = cluster.sim.current_process
                for _ in range(50):
                    results.append(rts.invoke(proc, handle, "read"))

            run_program(cluster, [(1, reader)])
            assert results == [5] * 50
            assert cluster.network.stats.messages_sent == baseline

    def test_remote_write_applies_at_primary(self):
        cluster, rts = make_rts(3, dynamic=False)
        with cluster:
            handle = self._setup_shared_register(cluster, rts, creator_node=0)
            results = []

            def writer():
                proc = cluster.sim.current_process
                results.append(rts.invoke(proc, handle, "assign", (77,)))

            run_program(cluster, [(2, writer)])
            assert results == [77]
            assert rts.managers[0].get(handle.obj_id).instance.value == 77
            assert rts.stats.rpc_writes == 1

    def test_interleaved_writes_from_all_nodes_serialise(self):
        cluster, rts = make_rts(4, dynamic=False)
        with cluster:
            handle = self._setup_shared_register(cluster, rts, creator_node=0)

            def writer(_node):
                def body():
                    proc = cluster.sim.current_process
                    for _ in range(10):
                        rts.invoke(proc, handle, "add", (1,))
                return body

            run_program(cluster, [(n, writer(n)) for n in range(4)])
            assert rts.managers[0].get(handle.obj_id).instance.value == 40


class TestUpdateProtocol:
    def test_update_refreshes_secondaries(self):
        cluster, rts = make_rts(4, protocol="update", everywhere=True, dynamic=False)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))
                rts.invoke(proc, handles["reg"], "assign", (31,))

            run_program(cluster, [(0, main)])
            obj_id = handles["reg"].obj_id
            for node in cluster.nodes:
                replica = rts.managers[node.node_id].get(obj_id)
                assert replica.instance.value == 31
                assert not replica.locked
            assert rts.stats.updates_sent == 3

    def test_update_keeps_copies_readable_locally_afterwards(self):
        cluster, rts = make_rts(3, protocol="update", everywhere=True, dynamic=False)
        with cluster:
            handles = {}
            results = []

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))
                rts.invoke(proc, handles["reg"], "assign", (8,))
                proc.hold(0.1)

            def reader():
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.001)
                proc.hold(0.05)
                baseline = cluster.network.stats.messages_sent
                results.append(rts.invoke(proc, handles["reg"], "read"))
                results.append(cluster.network.stats.messages_sent - baseline)

            run_program(cluster, [(0, main), (2, reader)])
            assert results[0] == 8
            assert results[1] == 0  # read served from the local secondary copy


class TestInvalidationProtocol:
    def test_invalidation_discards_secondaries(self):
        cluster, rts = make_rts(4, protocol="invalidation", everywhere=True, dynamic=False)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))
                rts.invoke(proc, handles["reg"], "assign", (12,))

            run_program(cluster, [(0, main)])
            obj_id = handles["reg"].obj_id
            assert rts.managers[0].get(obj_id).instance.value == 12
            for node_id in (1, 2, 3):
                assert not rts.managers[node_id].has_valid_copy(obj_id)
            assert rts.directory.copyset_of(obj_id) == {0}
            assert rts.stats.invalidations_sent == 3

    def test_read_after_invalidation_fetches_from_primary(self):
        cluster, rts = make_rts(3, protocol="invalidation", everywhere=True, dynamic=False)
        with cluster:
            handles = {}
            results = []

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))
                rts.invoke(proc, handles["reg"], "assign", (64,))
                proc.hold(0.2)

            def reader():
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.001)
                proc.hold(0.1)
                results.append(rts.invoke(proc, handles["reg"], "read"))

            run_program(cluster, [(0, main), (2, reader)])
            assert results == [64]
            assert rts.stats.remote_reads >= 1


class TestDynamicReplication:
    def test_read_heavy_node_acquires_copy(self):
        params = ReplicationParams(replicate_threshold=4.0, drop_threshold=1.0,
                                   min_accesses=6)
        cluster, rts = make_rts(3, dynamic=True, replication_params=params)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (3,))

            def reader():
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.001)
                for _ in range(30):
                    rts.invoke(proc, handles["reg"], "read")
                    proc.compute(10)

            run_program(cluster, [(0, main), (2, reader)])
            obj_id = handles["reg"].obj_id
            assert rts.managers[2].has_valid_copy(obj_id)
            assert 2 in rts.directory.copyset_of(obj_id)
            assert rts.replication.stats.copies_fetched >= 1
            # Once the copy exists, later reads are local.
            assert rts.stats.local_reads > 0

    def test_write_heavy_node_drops_its_copy(self):
        params = ReplicationParams(replicate_threshold=4.0, drop_threshold=1.0,
                                   min_accesses=6)
        cluster, rts = make_rts(3, dynamic=True, everywhere=True,
                                replication_params=params)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))

            def writer():
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.001)
                for i in range(30):
                    rts.invoke(proc, handles["reg"], "add", (1,))

            run_program(cluster, [(0, main), (2, writer)])
            obj_id = handles["reg"].obj_id
            assert not rts.managers[2].has_valid_copy(obj_id)
            assert 2 not in rts.directory.copyset_of(obj_id)
            assert rts.replication.stats.copies_dropped >= 1

    def test_final_value_correct_despite_replication_churn(self):
        cluster, rts = make_rts(4, dynamic=True)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (0,))

            def mixed(node_id):
                def body():
                    proc = cluster.sim.current_process
                    while "reg" not in handles:
                        proc.hold(0.001)
                    for i in range(20):
                        rts.invoke(proc, handles["reg"], "read")
                        if i % 4 == node_id % 4:
                            rts.invoke(proc, handles["reg"], "add", (1,))
                        proc.compute(20)
                return body

            run_program(cluster, [(0, main)] + [(n, mixed(n)) for n in range(4)])
            obj_id = handles["reg"].obj_id
            assert rts.managers[rts.directory.primary_of(obj_id)].get(obj_id).instance.value == 20


class TestEthernetAlsoWorks:
    def test_p2p_rts_runs_on_broadcast_capable_network(self):
        cluster, rts = make_rts(3, network_type="ethernet", dynamic=False)
        with cluster:
            handles = {}
            results = []

            def main():
                proc = cluster.sim.current_process
                handles["reg"] = rts.create_object(proc, Register, (2,))

            def user():
                proc = cluster.sim.current_process
                while "reg" not in handles:
                    proc.hold(0.001)
                results.append(rts.invoke(proc, handles["reg"], "add", (5,)))

            run_program(cluster, [(0, main), (1, user)])
            assert results == [7]
