"""``drain_node`` racing ``relocate_primary`` aimed at the draining node.

A drain evacuates every seat from the leaving machine and then retires
it.  A concurrent ``relocate_primary(..., target=leaving)`` would park a
seat right back on the machine that is about to go away — the runtime
refuses it (returns ``False``) for as long as the drain is in progress,
and these tests pin that refusal under live write traffic: the drain
completes with zero failure-path events, no seat ever lands on the
retired machine, and every write still applies exactly once.
"""

from __future__ import annotations

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RtsError
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 5
VICTIM = NUM_NODES - 1


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


def build(seed=23):
    """Three primary seats parked on the victim (so the drain has real
    work to do) plus one primary seat elsewhere for the racer to throw
    at the draining machine."""
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=2)
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        for i in range(4):
            handles[i] = rts.create_object(
                proc, Counter, (0,), name=f"ctr{i}",
                policy="primary-invalidate")
        for i in range(3):
            rts.relocate_primary(proc, handles[i], target=VICTIM)
        # handles[3] keeps its seat on node 0: the racer's projectile.

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    assert all(rts.directory.primary_of(handles[i].obj_id) == VICTIM for i in range(3))
    return cluster, rts, handles


class TestDrainRelocateRace:
    def test_relocate_to_draining_node_is_refused(self):
        cluster, rts, handles = build()
        done = {}
        refused = []
        try:
            def drainer():
                proc = cluster.sim.current_process
                done["drain"] = rts.drain_node(proc, VICTIM)

            def racer():
                # Hammer relocate_primary(target=VICTIM) for the whole
                # duration of the drain; every attempt must be refused.
                proc = cluster.sim.current_process
                while "drain" not in done:
                    if not rts.is_full_member(VICTIM):
                        try:
                            refused.append(rts.relocate_primary(
                                proc, handles[3], target=VICTIM))
                        except RtsError:
                            # The drain retired the machine between the
                            # membership check and the call: same refusal,
                            # different spelling.
                            break
                    proc.hold(0.0004)

            def writer(node_id):
                proc = cluster.sim.current_process
                for _ in range(8):
                    for handle in handles.values():
                        rts.invoke(proc, handle, "add", (1,))
                    proc.hold(0.0003)

            cluster.node(0).kernel.spawn_thread(drainer)
            cluster.node(1).kernel.spawn_thread(racer)
            for node_id in (1, 2, 3):
                cluster.node(node_id).kernel.spawn_thread(writer, node_id)
            cluster.run()

            assert done["drain"] is True
            assert refused, "the racer never overlapped the drain"
            assert not any(refused), (
                f"a relocation landed on the draining node: {refused}")
            # The drain was planned: no takeover/failure path ran.
            assert rts.stats.nodes_drained == 1
            assert rts.stats.primary_recoveries == 0 and not rts.recoveries
            assert not cluster.node(VICTIM).alive
            for handle in handles.values():
                assert rts.directory.primary_of(handle.obj_id) != VICTIM

            # Exactly-once under the race: 3 writers x 8 rounds x 1 each.
            totals = {}

            def reader():
                proc = cluster.sim.current_process
                for i, handle in handles.items():
                    totals[i] = rts.invoke(proc, handle, "read")

            cluster.node(0).kernel.spawn_thread(reader)
            cluster.run()
            assert totals == {i: 24 for i in range(4)}
        finally:
            cluster.shutdown()

    def test_concurrent_drain_of_the_same_node_reports_false(self):
        cluster, rts, handles = build()
        results = {}
        try:
            def drainer(key):
                proc = cluster.sim.current_process
                results[key] = rts.drain_node(proc, VICTIM)

            cluster.node(0).kernel.spawn_thread(drainer, "first")
            cluster.node(1).kernel.spawn_thread(drainer, "second")
            cluster.run()
            # Exactly one drain ran; the overlapping request was refused
            # rather than double-evacuating the machine.
            assert sorted(results.values()) == [False, True]
            assert rts.stats.nodes_drained == 1
        finally:
            cluster.shutdown()
