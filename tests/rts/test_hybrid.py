"""Integration tests for the unified runtime: per-object policies, live
migration, the adaptive controller, back-compat shims, and the reconciled
per-object statistics."""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro.amoeba.broadcast.group import BroadcastGroup
from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RtsError
from repro.orca.builtin_objects import DictObject, IntObject
from repro.orca.program import OrcaProgram
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.policy import AdaptiveParams


class Register(ObjectSpec):
    def init(self, value=0):
        self.value = value

    @operation(write=False)
    def read(self):
        return self.value

    @operation(write=True)
    def add(self, delta):
        self.value += delta
        return self.value


class GuardedCell(ObjectSpec):
    """A cell whose consume blocks (via guard retry) until a value appears."""

    def init(self):
        self.value = None

    @operation(write=True)
    def put(self, value):
        self.value = value
        return value

    @operation(write=True, guard=lambda self: self.value is not None)
    def take(self):
        value, self.value = self.value, None
        return value


def run_threads(cluster, bodies):
    """Spawn each (node_id, callable) thread and run to completion."""
    for node_id, body in bodies:
        cluster.node(node_id).kernel.spawn_thread(body)
    cluster.run()


def make_hybrid(n=4, seed=7, **kwargs):
    cluster = Cluster(ClusterConfig(num_nodes=n, seed=seed))
    return cluster, HybridRts(cluster, **kwargs)


class TestDeliveryHandlers:
    def test_handlers_are_repro_rts_functions_or_bound_methods(self, monkeypatch):
        """The benchmark's outside tracer files delivery work under the layer
        the handler's ``__module__`` names: a ``functools.partial`` (no
        ``__module__`` of its own) would silently move it to "other"."""
        handed = []
        install = BroadcastGroup.set_delivery_handler

        def recording(group, node_id, handler):
            handed.append(handler)
            install(group, node_id, handler)

        monkeypatch.setattr(BroadcastGroup, "set_delivery_handler", recording)
        cluster, rts = make_hybrid(n=3, num_shards=2)
        with cluster:
            rts.add_shard()
            made = []

            def main():
                proc = cluster.sim.current_process
                made.append(rts.create_object(proc, Register, (0,)))
                rts.invoke(proc, made[0], "add", (5,))

            run_threads(cluster, [(1, main)])
            assert len(handed) == 3 * 3
            for handler in handed:
                assert inspect.isfunction(handler) or inspect.ismethod(handler)
                assert handler.__module__.startswith("repro.rts")
            # ... and they are what the members really call.
            assert {m.delivery_handler for g in rts.router.groups
                    for m in g.members.values()} == set(handed)
            assert rts.managers[2].get(made[0].obj_id).instance.value == 5


class TestPerObjectPolicies:
    def test_mixed_policies_in_one_cluster(self):
        cluster, rts = make_hybrid()
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["b"] = rts.create_object(proc, Register, (0,),
                                                 name="b", policy="broadcast")
                handles["p"] = rts.create_object(proc, Register, (0,), name="p",
                                                 policy="primary-invalidate")

            run_threads(cluster, [(0, main)])
            assert rts.policy_of(handles["b"]) == "broadcast"
            assert rts.policy_of(handles["p"]) == "primary-invalidate"
            # Broadcast object is replicated everywhere; the primary object
            # lives only on its creator.
            for node in cluster.nodes:
                assert rts.managers[node.node_id].has_valid_copy(
                    handles["b"].obj_id)
            assert rts.managers[0].has_valid_copy(handles["p"].obj_id)
            assert not rts.managers[2].has_valid_copy(handles["p"].obj_id)
            assert rts.directory.primary_of(handles["p"].obj_id) == 0

    def test_both_mechanisms_serve_operations(self):
        cluster, rts = make_hybrid()
        with cluster:
            handles = {}
            results = {}

            def main():
                proc = cluster.sim.current_process
                handles["b"] = rts.create_object(proc, Register, (0,),
                                                 name="b", policy="broadcast")
                handles["p"] = rts.create_object(proc, Register, (0,), name="p",
                                                 policy="primary-update")

            def user():
                proc = cluster.sim.current_process
                for _ in range(5):
                    rts.invoke(proc, handles["b"], "add", (1,))
                    rts.invoke(proc, handles["p"], "add", (10,))
                results["b"] = rts.invoke(proc, handles["b"], "read")
                results["p"] = rts.invoke(proc, handles["p"], "read")

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(2, user)])
            assert results == {"b": 5, "p": 50}
            assert rts.stats.broadcast_writes == 5
            assert rts.stats.rpc_writes == 5

    def test_broadcast_policy_needs_broadcast_network(self):
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=1),
                          network_type="switched")
        with cluster:
            rts = HybridRts(cluster, default_policy="primary")
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["p"] = rts.create_object(proc, Register, (0,))
                with pytest.raises(RtsError):
                    rts.create_object(proc, Register, (0,), policy="broadcast")

            run_threads(cluster, [(0, main)])
            assert rts.policy_of(handles["p"]) == "primary-update"


class TestExplicitMigration:
    def test_round_trip_preserves_state_and_counts(self):
        cluster, rts = make_hybrid()
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,), name="c")

            def writer(node_id):
                def body():
                    proc = cluster.sim.current_process
                    for _ in range(10):
                        rts.invoke(proc, handles["c"], "add", (1,))
                        proc.hold(0.001)
                return body

            def migrator():
                proc = cluster.sim.current_process
                proc.hold(0.004)
                assert rts.migrate(proc, handles["c"], "primary-invalidate")
                proc.hold(0.01)
                assert rts.migrate(proc, handles["c"], "broadcast")

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(n, writer(n)) for n in range(4)]
                        + [(1, migrator)])
            # Every write applied exactly once, replicas agree everywhere.
            for node in cluster.nodes:
                replica = rts.managers[node.node_id].get(handles["c"].obj_id)
                assert replica.instance.value == 40
            assert rts.stats.migrations == 2
            assert rts.stats.migrations_to_primary == 1
            assert rts.stats.migrations_to_broadcast == 1
            assert [m.target for m in rts.migrations] == [
                "primary-invalidate", "broadcast"]

    def test_migrate_to_same_policy_is_a_noop(self):
        cluster, rts = make_hybrid()
        with cluster:
            handles = {}
            outcomes = []

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,))
                outcomes.append(rts.migrate(proc, handles["c"], "broadcast"))

            run_threads(cluster, [(0, main)])
            assert outcomes == [False]
            assert rts.stats.migrations == 0

    def test_primary_lands_on_heaviest_writer(self):
        cluster, rts = make_hybrid()
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,))

            def writer(node_id, count):
                def body():
                    proc = cluster.sim.current_process
                    for _ in range(count):
                        rts.invoke(proc, handles["c"], "add", (1,))
                return body

            def migrator():
                proc = cluster.sim.current_process
                proc.hold(0.05)
                rts.migrate(proc, handles["c"], "primary-invalidate")

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(1, writer(1, 3)), (3, writer(3, 12)),
                                  (0, migrator)])
            assert rts.directory.primary_of(handles["c"].obj_id) == 3

    def test_protocol_flip_works_on_switched_network(self):
        """A coherence-protocol flip is pure bookkeeping: it must work on a
        network without hardware broadcast."""
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=47),
                          network_type="switched")
        with cluster:
            rts = HybridRts(cluster, default_policy="primary")
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["p"] = rts.create_object(proc, Register, (1,))
                assert rts.migrate(proc, handles["p"], "primary-invalidate")
                rts.invoke(proc, handles["p"], "add", (1,))

            run_threads(cluster, [(0, main)])
            assert rts.policy_of(handles["p"]) == "primary-invalidate"
            assert rts.managers[0].get(handles["p"].obj_id).instance.value == 2
            assert rts.router is None  # still no broadcast machinery built

    def test_protocol_flip_between_primary_flavours(self):
        cluster, rts = make_hybrid(seed=9)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["p"] = rts.create_object(proc, Register, (0,),
                                                 policy="primary-update")
                rts.invoke(proc, handles["p"], "add", (1,))
                assert rts.migrate(proc, handles["p"], "primary-invalidate")
                rts.invoke(proc, handles["p"], "add", (1,))

            run_threads(cluster, [(0, main)])
            assert rts.policy_of(handles["p"]) == "primary-invalidate"
            assert rts.managers[0].get(handles["p"].obj_id).instance.value == 2
            # Protocol flips stay out of the epoch machinery entirely.
            assert rts.switch.epoch_of(handles["p"].obj_id) == 0

    def test_guard_waiters_survive_migration_to_broadcast(self):
        """A consumer blocked on a guarded operation across a migration is
        woken by the post-migration producer."""
        cluster, rts = make_hybrid(seed=11)
        with cluster:
            handles = {}
            taken = []

            def main():
                proc = cluster.sim.current_process
                handles["cell"] = rts.create_object(
                    proc, GuardedCell, name="cell", policy="broadcast")

            def consumer():
                proc = cluster.sim.current_process
                taken.append(rts.invoke(proc, handles["cell"], "take"))

            def producer():
                proc = cluster.sim.current_process
                proc.hold(0.01)
                rts.migrate(proc, handles["cell"], "primary-invalidate")
                proc.hold(0.01)
                rts.migrate(proc, handles["cell"], "broadcast")
                proc.hold(0.01)
                rts.invoke(proc, handles["cell"], "put", (42,))

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(2, consumer), (1, producer)])
            assert taken == [42]

    def test_reads_remain_consistent_across_migration(self):
        """A reader polling through both migrations never sees the register
        go backwards (per-process monotonicity across the switch)."""
        cluster, rts = make_hybrid(seed=13)
        with cluster:
            handles = {}
            observed = []

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,))

            def writer():
                proc = cluster.sim.current_process
                for _ in range(30):
                    rts.invoke(proc, handles["c"], "add", (1,))
                    proc.hold(0.001)

            def reader():
                proc = cluster.sim.current_process
                for _ in range(60):
                    observed.append(rts.invoke(proc, handles["c"], "read"))
                    proc.hold(0.0005)

            def migrator():
                proc = cluster.sim.current_process
                proc.hold(0.008)
                rts.migrate(proc, handles["c"], "primary-update")
                proc.hold(0.01)
                rts.migrate(proc, handles["c"], "broadcast")

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(1, writer), (2, reader), (3, migrator)])
            assert observed == sorted(observed), observed
            assert observed[-1] <= 30


class TestMigrationRaces:
    def test_ack_from_a_crashed_node_is_not_double_counted(self):
        """A secondary whose ack is in flight when it crashes must release
        its debt exactly once: the crash listener frees it, and the
        late-delivered ack must then be ignored (not complete the fan-out
        while live secondaries are still applying)."""
        cluster, rts = make_hybrid(n=4, seed=41)
        with cluster:
            txn_id = rts.primary.fanouts.new_transaction(2, destinations=[1, 2])
            rts.primary.on_node_crash(1)
            assert rts.primary.fanouts._transactions[txn_id].remaining == 1
            # The crashed node's ack arrives anyway (it left the wire before
            # the crash): no further decrement.
            rts.primary.fanouts.on_ack(0, {"txn_id": txn_id, "node": 1})
            assert rts.primary.fanouts._transactions[txn_id].remaining == 1
            # The live secondary's ack completes the transaction.
            rts.primary.fanouts.on_ack(0, {"txn_id": txn_id, "node": 2})
            assert rts.primary.fanouts._transactions[txn_id].remaining == 0
            # A fan-out whose owner crashes is forgotten, its wake never run.
            woken = []
            owned = rts.primary.fanouts.new_transaction(1, destinations=[2])
            assert rts.primary.fanouts.wait(owned, 3, lambda: woken.append(owned))
            rts.primary.fanouts.node_crashed(3)
            assert owned not in rts.primary.fanouts._transactions
            rts.primary.fanouts.on_ack(0, {"txn_id": owned, "node": 2})
            assert woken == []

    def test_concurrent_migrate_calls_perform_one_migration(self):
        """A second migrate() issued while the first is suspended in its
        freeze/snapshot phase (epoch not yet bumped) must be refused, not
        run a duplicate freeze + switch."""
        cluster, rts = make_hybrid(n=4, seed=43)
        with cluster:
            handles = {}
            outcomes = {}

            def main():
                proc = cluster.sim.current_process
                # Primary lives on node 1, so a migrator on node 0 must
                # freeze it via RPC — a real suspension window.
                handles["p"] = rts.create_object(proc, Register, (5,),
                                                 policy="primary-invalidate")

            def migrator(name, delay):
                def body():
                    proc = cluster.sim.current_process
                    proc.hold(delay)
                    outcomes[name] = rts.migrate(proc, handles["p"],
                                                 "broadcast")
                return body

            run_threads(cluster, [(1, main)])
            run_threads(cluster, [(0, migrator("first", 0.001)),
                                  (2, migrator("second", 0.00101))])
            assert outcomes == {"first": True, "second": False}
            assert rts.stats.migrations == 1
            assert rts.switch.epoch_of(handles["p"].obj_id) == 1
            assert rts.policy_of(handles["p"]) == "broadcast"
            for node in cluster.nodes:
                assert rts.managers[node.node_id].get(
                    handles["p"].obj_id).instance.value == 5


class TestAdaptiveMigration:
    def test_write_hot_object_migrates_read_mostly_stays(self):
        cluster, rts = make_hybrid(seed=2, default_policy="adaptive")
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["hot"] = rts.create_object(proc, Register, (0,),
                                                   name="hot")
                handles["cold"] = rts.create_object(proc, DictObject,
                                                    name="cold")
                rts.invoke(proc, handles["cold"], "store", ("k", 1))

            def client(node_id):
                def body():
                    proc = cluster.sim.current_process
                    for _ in range(40):
                        rts.invoke(proc, handles["hot"], "add", (1,))
                        rts.invoke(proc, handles["cold"], "lookup", ("k",))
                        proc.hold(0.0005)
                return body

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(n, client(n)) for n in range(4)])
            assert rts.policy_of(handles["hot"]) == "primary-invalidate"
            assert rts.policy_of(handles["cold"]) == "broadcast"
            assert rts.object_summary()["hot"]["adaptive"] is True
            primary = rts.directory.primary_of(handles["hot"].obj_id)
            value = rts.managers[primary].get(handles["hot"].obj_id).instance.value
            assert value == 160
            assert rts.stats.migrations_to_primary == 1

    def test_adaptive_object_migrates_back_when_mix_flips(self):
        params = AdaptiveParams(min_accesses=12, check_interval=4)
        cluster, rts = make_hybrid(seed=5, default_policy="adaptive")
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,),
                                                 name="c", policy=params)
                # Phase 1: write-heavy -> should move to the primary copy.
                # (Adaptive migrations run in a spawned thread, so yield a
                # moment for the controller's decision to take effect.)
                for _ in range(40):
                    rts.invoke(proc, handles["c"], "add", (1,))
                    proc.hold(0.0002)
                proc.hold(0.05)
                assert rts.policy_of(handles["c"]) == "primary-invalidate"
                # Phase 2: read-mostly -> should move back to broadcast.
                for _ in range(200):
                    rts.invoke(proc, handles["c"], "read")
                    proc.hold(0.0002)
                proc.hold(0.05)
                assert rts.policy_of(handles["c"]) == "broadcast"

            run_threads(cluster, [(0, main)])
            assert rts.stats.migrations_to_primary == 1
            assert rts.stats.migrations_to_broadcast == 1
            for node in cluster.nodes:
                assert rts.managers[node.node_id].get(
                    handles["c"].obj_id).instance.value == 40

    def test_adaptive_runs_are_deterministic(self):
        def run_once():
            cluster, rts = make_hybrid(seed=21, default_policy="adaptive")
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,),
                                                 name="c")

            def client(node_id):
                def body():
                    proc = cluster.sim.current_process
                    for i in range(30):
                        if i % 5 == 0:
                            rts.invoke(proc, handles["c"], "read")
                        else:
                            rts.invoke(proc, handles["c"], "add", (1,))
                        proc.hold(0.001)
                return body

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(n, client(n)) for n in range(4)])
            digest = (
                [(m.target, m.epoch, m.primary_node) for m in rts.migrations],
                rts.policy_of(handles["c"]),
                cluster.sim.now,
            )
            cluster.shutdown()
            return digest

        assert run_once() == run_once()


class TestFixedPolicyConfigurations:
    """The paper's two runtime systems (and the central-server baseline) are
    ``HybridRts`` with one default policy, under their classic report names."""

    def test_broadcast_configuration_keeps_its_report_name(self):
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=3))
        with cluster:
            rts = HybridRts(cluster, default_policy="broadcast")
            assert rts.name == "broadcast-rts"
            assert rts.default_policy.name == "broadcast"
            assert rts.read_write_summary()["rts"] == "broadcast-rts"

    def test_primary_configuration_keeps_its_report_name(self):
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=3),
                          network_type="switched")
        with cluster:
            rts = HybridRts(cluster, default_policy="primary",
                            protocol="invalidation")
            assert rts.name == "p2p-rts"
            assert rts.default_policy.name == "primary-invalidate"
            assert rts.protocol == "invalidation"

    def test_constructing_a_runtime_warns_nothing(self):
        from repro.baselines.central_server import CentralServerRts

        cluster = Cluster(ClusterConfig(num_nodes=2, seed=3),
                          network_type="switched")
        with cluster:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rts = CentralServerRts(cluster)
            assert not caught
            assert rts.name == "central-server-rts"
            with pytest.raises(ImportError):
                import repro.rts.broadcast_rts  # noqa: F401
            with pytest.raises(ImportError):
                import repro.rts.p2p.runtime  # noqa: F401

    def test_central_server_is_the_unreplicated_primary_configuration(self):
        """The baseline and the configuration it names produce identical runs."""
        from repro.baselines.central_server import CentralServerRts

        def run_with(factory):
            cluster = Cluster(ClusterConfig(num_nodes=3, seed=17),
                              network_type="switched")
            rts = factory(cluster)
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,))

            def writer(node_id):
                def body():
                    proc = cluster.sim.current_process
                    for _ in range(8):
                        rts.invoke(proc, handles["c"], "add", (1,))
                        rts.invoke(proc, handles["c"], "read")
                return body

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(n, writer(n)) for n in range(3)])
            summary = rts.read_write_summary()
            summary.pop("rts")
            digest = (cluster.sim.now, cluster.network.stats.messages_sent,
                      summary)
            cluster.shutdown()
            return digest

        baseline = run_with(CentralServerRts)
        unified = run_with(lambda c: HybridRts(
            c, default_policy="primary", dynamic_replication=False))
        assert baseline == unified
        assert baseline[2]["remote_reads"] > 0  # never replicated


class TestReconciledObjectSummary:
    def test_per_object_rows_carry_policy_and_agree_with_shards(self):
        cluster, rts = make_hybrid(n=4, seed=19, num_shards=2)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                for i in range(4):
                    handles[i] = rts.create_object(proc, Register, (0,),
                                                   name=f"r{i}")
                handles["p"] = rts.create_object(proc, Register, (0,), name="p",
                                                 policy="primary-update")

            def client():
                proc = cluster.sim.current_process
                for i in range(4):
                    for _ in range(i + 1):
                        rts.invoke(proc, handles[i], "add", (1,))
                    rts.invoke(proc, handles[i], "read")
                rts.invoke(proc, handles["p"], "add", (1,))

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(2, client)])

            summary = rts.read_write_summary()
            rows = summary["per_object"]
            assert set(rows) == {"r0", "r1", "r2", "r3", "p"}
            for i in range(4):
                assert rows[f"r{i}"]["writes"] == i + 1
                assert rows[f"r{i}"]["reads"] == 1
                assert rows[f"r{i}"]["policy"] == "broadcast"
                assert rows[f"r{i}"]["shard"] == rts.shard_of(handles[i])
            assert rows["p"]["policy"] == "primary-update"
            assert "shard" not in rows["p"]

            # Reconciliation: per-shard write counters are exactly the
            # per-object rows grouped by shard — no independent aggregation.
            per_shard = {shard: stats.writes
                         for shard, stats in rts.router.shard_stats.items()}
            regrouped = {shard: 0 for shard in per_shard}
            for i in range(4):
                regrouped[rows[f"r{i}"]["shard"]] += rows[f"r{i}"]["writes"]
            assert regrouped == per_shard

    def test_guard_retries_do_not_double_count_shard_writes(self):
        """A guarded write that retries is one write invocation in both the
        per-object and the per-shard counters (the seed disagreed here)."""
        cluster, rts = make_hybrid(n=2, seed=23)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["cell"] = rts.create_object(proc, GuardedCell,
                                                    name="cell")

            def consumer():
                proc = cluster.sim.current_process
                rts.invoke(proc, handles["cell"], "take")

            def producer():
                proc = cluster.sim.current_process
                proc.hold(0.01)
                rts.invoke(proc, handles["cell"], "put", (1,))

            run_threads(cluster, [(0, main)])
            run_threads(cluster, [(1, consumer), (0, producer)])
            obj_id = handles["cell"].obj_id
            assert rts.stats.guard_retries >= 1
            assert rts.stats.per_object_writes[obj_id] == 2  # take + put
            assert rts.router.shard_stats[0].writes == 2

    def test_migrations_surface_in_summaries(self):
        cluster, rts = make_hybrid(seed=29)
        with cluster:
            handles = {}

            def main():
                proc = cluster.sim.current_process
                handles["c"] = rts.create_object(proc, Register, (0,), name="c")
                rts.invoke(proc, handles["c"], "add", (1,))
                rts.migrate(proc, handles["c"], "primary-invalidate")

            run_threads(cluster, [(0, main)])
            summary = rts.read_write_summary()
            assert summary["migrations"]["total"] == 1
            assert summary["migrations"]["to_primary"] == 1
            assert summary["migrations"]["log"] == [
                ("c", "primary-invalidate", 0)]
            assert summary["per_object"]["c"]["policy"] == "primary-invalidate"
            assert rts.router.shard_stats[0].migrations == 1


class TestOrcaPolicySurface:
    def test_new_object_policy_and_bound_migrate(self):
        def main(proc):
            ledger = proc.new_object(IntObject, 0, name="ledger",
                                     policy="primary-invalidate")
            cache = proc.new_object(DictObject, name="cache")
            cache.store("k", 1)
            ledger.add(5)
            policies = [ledger.policy, cache.policy]
            moved = ledger.migrate("broadcast")
            policies.append(ledger.policy)
            return policies, moved, ledger.add(2)

        program = OrcaProgram(main, ClusterConfig(num_nodes=3, seed=31),
                              rts="hybrid")
        result = program.run()
        policies, moved, value = result.value
        assert policies == ["primary-invalidate", "broadcast", "broadcast"]
        assert moved is True
        assert value == 7

    def test_adaptive_program_kind(self):
        def main(proc):
            counter = proc.new_object(IntObject, 0)
            for _ in range(40):
                counter.add(1)
            return counter.policy, counter.read()

        result = OrcaProgram(main, ClusterConfig(num_nodes=4, seed=37),
                             rts="adaptive").run()
        policy, value = result.value
        assert policy == "primary-invalidate"
        assert value == 40
        assert result.rts_name == "adaptive-rts"
