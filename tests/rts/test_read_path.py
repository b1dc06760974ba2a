"""The local read from ``invoke`` down: what a call site resolves once, what it
still checks on every call, and that the counters, histories and virtual time
are those of the long way round."""

from __future__ import annotations

from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.amoeba.message import estimate_size
from repro.config import ClusterConfig
from repro.rts.consistency import HistoryRecorder, ReadRecord
from repro.rts.hybrid import HybridRts
from repro.rts.manager import ObjectManager
from repro.rts.object_model import RETRY, ObjectSpec, operation
from repro.rts.policy import MECHANISM_BROADCAST, AdaptiveParams
from repro.rts.primary import PrimaryCopy
from repro.rts.switch import MIGRATED


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


class Mailbox(ObjectSpec):
    """A cell whose *read* blocks (guard retry) until something was posted."""

    def init(self):
        self.letter = None

    @operation(write=True)
    def post(self, letter):
        self.letter = letter

    @operation(write=False, guard=lambda self: self.letter is not None)
    def peek(self):
        return self.letter


class ReferenceRts(HybridRts):
    """The invocation path the long way round: nothing is taken from the call
    site but the operation's name; every count goes through its ``note_*``
    method, every replica through the manager's public lookups, and the read
    history through an unconditional ``record_read``."""

    def _invoke(self, proc, site, handle, args, kwargs):
        node = self._node_of(proc)
        nid = node.node_id
        obj_id = handle.obj_id
        op = handle.spec_class.operation_def(site.op.name)
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        if op.work_units:
            proc.compute(op.work_units)
        access = self.replication.decider.stats_for(obj_id, nid)
        if op.is_write:
            self.stats.note_write(obj_id)
            access.note_write()
        else:
            access.note_read()
        shard_write_noted = False
        while True:
            if self._mechanism_of(obj_id) == MECHANISM_BROADCAST:
                if op.is_write:
                    if not shard_write_noted:
                        self.router.note_write(
                            obj_id, handle.name,
                            nbytes=estimate_size(args) + estimate_size(kwargs))
                        shard_write_noted = True
                    result = self._broadcast_write(proc, node, handle, op, args, kwargs)
                else:
                    result = self._reference_read(proc, node, handle, op, args, kwargs)
            else:
                proc.absorb_overhead(node.drain_overhead())
                serve = self.primary.write if op.is_write else self.primary.read
                result = serve(proc, nid, handle, op, args, kwargs)
                if result is not MIGRATED and self.dynamic_replication:
                    self.primary.apply_replication_policy(proc, nid, handle)
            if result is not MIGRATED:
                break
        controller = self._adaptive_by_obj.get(obj_id)
        if controller is not None:
            self.placement.adaptive_check(proc, handle, controller, op.is_write)
        return result

    def _reference_read(self, proc, node, handle, op, args, kwargs):
        manager = self.managers[node.node_id]
        if not manager.has_valid_copy(handle.obj_id):
            self._await_replica(proc, node.node_id, handle.obj_id)
        proc.absorb_overhead(node.drain_overhead())
        while True:
            result = manager.execute_read(handle.obj_id, op, args, kwargs)
            if result is not RETRY:
                break
            self.stats.guard_retries += 1
            self._wait_for_change(proc, node.node_id, handle.obj_id)
        self.stats.note_read(handle.obj_id, local=True)
        self.history.record_read(proc.name, node.node_id, handle.obj_id, op.name, args,
                                 result, manager.get(handle.obj_id).version)
        return result


def make(rts_class=HybridRts, n=3, seed=11, **kwargs):
    cluster = Cluster(ClusterConfig(num_nodes=n, seed=seed))
    return cluster, rts_class(cluster, **kwargs)


def run_threads(cluster, bodies):
    for node_id, body in bodies:
        cluster.node(node_id).kernel.spawn_thread(body, name="reader")
    cluster.run()


def create(cluster, rts, spec_class, *args, **kwargs):
    made = []

    def main():
        made.append(rts.create_object(cluster.sim.current_process, spec_class, args, **kwargs))

    run_threads(cluster, [(0, main)])
    return made[0]


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a plain or class method)."""
    calls = []
    original = owner.__dict__[name]
    function = getattr(original, "__func__", original)

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name,
                        classmethod(counted) if isinstance(original, classmethod) else counted)
    return calls


class TestWhatACallSiteResolvesOnce:
    def _hundred_more_reads(self, monkeypatch, record_history):
        cluster, rts = make(record_history=record_history)
        counted = {}
        with cluster:
            register = create(cluster, rts, Register, 5)

            def reader():
                proc = cluster.sim.current_process
                assert rts.invoke(proc, register, "add", (1,)) == 6
                assert rts.invoke(proc, register, "read") == 6
                counted["operation_def"] = count_calls(monkeypatch, ObjectSpec, "operation_def")
                counted["get"] = count_calls(monkeypatch, ObjectManager, "get")
                counted["record_read"] = count_calls(monkeypatch, HistoryRecorder, "record_read")
                for _ in range(100):
                    assert rts.invoke(proc, register, "read") == 6

            run_threads(cluster, [(1, reader)])
            assert rts.stats.local_reads == 101
            assert rts.managers[1].stats.local_reads == 101
            assert rts.replication.access_stats(register.obj_id, 1).total_reads == 101
        return rts, register, counted

    def test_a_repeated_local_read_resolves_and_looks_up_nothing_again(self, monkeypatch):
        _rts, _register, counted = self._hundred_more_reads(monkeypatch, record_history=False)
        assert counted["operation_def"] == []
        assert len(counted["get"]) <= 100
        assert counted["record_read"] == []

    def test_with_the_recorder_on_every_read_is_recorded_as_before(self, monkeypatch):
        rts, register, counted = self._hundred_more_reads(monkeypatch, record_history=True)
        assert len(counted["record_read"]) == 100
        assert rts.history.reads == [
            ReadRecord("n1:reader#1", 1, register.obj_id, "read", (), 6, 1)] * 101

    def test_one_table_holds_reads_and_delivered_writes(self):
        cluster, rts = make()
        with cluster:
            register = create(cluster, rts, Register)

            def body():
                proc = cluster.sim.current_process
                rts.invoke(proc, register, "add", (1,))
                rts.invoke(proc, register, "read")

            run_threads(cluster, [(2, body)])
            # Every member applied the write; only node 2 read.
            assert sorted(rts._sites) == [(0, register.obj_id, "add"),
                                          (1, register.obj_id, "add"),
                                          (2, register.obj_id, "add"),
                                          (2, register.obj_id, "read")]
            site = rts._sites[(2, register.obj_id, "read")]
            assert (site.kind, site.op) == ("read", Register.operation_def("read"))
            assert site.manager is rts.managers[2] and site.node is cluster.node(2)
            assert site.access is rts.replication.access_stats(register.obj_id, 2)


class TestWhatIsCheckedOnEveryCall:
    def test_the_read_after_a_migration_settles_is_served_by_the_new_mechanism(
            self, monkeypatch):
        cluster, rts = make()
        with cluster:
            register = create(cluster, rts, Register, 3)
            served = []
            for owner, name in ((HybridRts, "_broadcast_read"), (PrimaryCopy, "read")):
                original = getattr(owner, name)

                def spy(self, *args, _name=name, _original=original):
                    served.append(_name)
                    return _original(self, *args)

                monkeypatch.setattr(owner, name, spy)

            def body():
                proc = cluster.sim.current_process
                for policy in ("primary-invalidate", "broadcast"):
                    assert rts.invoke(proc, register, "read") == 3
                    assert rts.migrate(proc, register, policy)
                    proc.hold(0.05)
                assert rts.invoke(proc, register, "read") == 3

            run_threads(cluster, [(2, body)])
            assert served == ["_broadcast_read", "read", "_broadcast_read"]
            assert rts.stats.local_reads == 3

    def test_an_adaptive_object_migrates_on_the_same_read_as_before(self):
        params = AdaptiveParams(min_accesses=12, check_interval=4)
        cluster, rts = make(default_policy="adaptive")
        with cluster:
            register = create(cluster, rts, Register, policy=params)
            spawned_after = []

            def body():
                proc = cluster.sim.current_process
                for _ in range(9):
                    rts.invoke(proc, register, "add", (1,))
                for reads in range(1, 9):
                    rts.invoke(proc, register, "read")
                    if register.obj_id in rts.placement._migration_pending:
                        spawned_after.append(reads)
                        break
                proc.hold(0.05)

            run_threads(cluster, [(1, body)])
            # Accesses 10 and 11 are not due; the twelfth (9 writes, 3 reads:
            # ratio 1/3) is, and a local read is what trips it.
            assert spawned_after == [3]
            assert rts.policy_of(register) == "primary-invalidate"
            assert rts.stats.migrations_to_primary == 1

    def test_a_guard_that_rejects_a_read_counts_the_retry_and_blocks(self):
        cluster, rts = make()
        with cluster:
            mailbox = create(cluster, rts, Mailbox)
            seen = []

            def reader():
                proc = cluster.sim.current_process
                seen.append((rts.invoke(proc, mailbox, "peek"), proc.local_time))

            def writer():
                proc = cluster.sim.current_process
                proc.hold(0.5)
                rts.invoke(proc, mailbox, "post", ("hello",))

            run_threads(cluster, [(1, reader), (0, writer)])
            assert seen[0][0] == "hello" and seen[0][1] > 0.5
            assert rts.stats.guard_retries == 1
            assert rts.stats.local_reads == 1
            assert rts.managers[1].stats.local_reads == 2


def observed(cluster, rts, handles, results):
    """Everything a run leaves behind that the read path touches."""
    summary = rts.read_write_summary()
    del summary["rts"]  # a subclass of HybridRts reports under another name
    return {
        "results": results,
        "summary": summary,
        "stats": asdict(rts.stats),
        "access": {(handle.name, node.node_id):
                   asdict(rts.replication.access_stats(handle.obj_id, node.node_id))
                   for handle in handles for node in cluster.nodes},
        "managers": {node_id: asdict(manager.stats)
                     for node_id, manager in rts.managers.items()},
        "reads": rts.history.reads,
        "now": cluster.sim.now,
    }


def run_mix(rts_class, steps, migrate_at, to_primary):
    """``steps`` of ``(node, object, is_write)`` issued a node at a time, each
    node's in order, and one migration of the first object while they run."""
    cluster, rts = make(rts_class, record_history=True)
    with cluster:
        handles = [create(cluster, rts, Register, name="b", policy="broadcast"),
                   create(cluster, rts, Register, name="p", policy="primary-update")]
        if not to_primary:  # start the other way round, migrate back
            handles.reverse()
        results = {node.node_id: [] for node in cluster.nodes}

        def client(node_id):
            def body():
                proc = cluster.sim.current_process
                for index, (node, which, is_write) in enumerate(steps):
                    if node != node_id:
                        continue
                    proc.hold(0.0003)
                    if index == migrate_at:
                        target = "primary-invalidate" if to_primary else "broadcast"
                        rts.migrate(proc, handles[0], target)
                    op, args = ("add", (1,)) if is_write else ("read", ())
                    results[node_id].append(rts.invoke(proc, handles[which], op, args))
            return body

        run_threads(cluster, [(node.node_id, client(node.node_id)) for node in cluster.nodes])
        return observed(cluster, rts, handles, results)


class TestAgainstTheLongWayRound:
    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 1), st.booleans()),
            min_size=1, max_size=40),
        migrate_at=st.integers(0, 39),
        to_primary=st.booleans(),
    )
    def test_counts_histories_and_virtual_time_are_the_same(self, steps, migrate_at, to_primary):
        assert (run_mix(HybridRts, steps, migrate_at, to_primary)
                == run_mix(ReferenceRts, steps, migrate_at, to_primary))
