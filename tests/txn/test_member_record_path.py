"""What one member does with one delivered ``txn-*`` record.

The delivery side of ``txn/`` runs at every member for every record, so
its cost is multiplied by the cluster size.  Pinned here: a guard vote
equals the clone-and-replay reference without cloning unless a later guard
needs an earlier effect; an uncontended transfer resolves each operation
once and never replays an empty queue; a released lock hands the items that
would only queue again to the new lock without their handler; and the
tombstone and lock tables are empty once a healthy run has settled.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.amoeba.broadcast.protocol import DeliveredMessage
from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.hybrid import HybridRts
from repro.rts.manager import Replica
from repro.rts.object_model import RETRY, ObjectSpec, execute_operation, operation
from repro.txn.locks import MODE_PREPARED, LockEntry, MemberLockTable
from repro.txn.participant import TxnParticipant, guard_vote


class Account(ObjectSpec):
    def init(self, balance=0):
        self.balance = balance

    @operation(write=False)
    def read(self):
        return self.balance

    @operation(write=True, guard=lambda self, amount: self.balance >= amount)
    def withdraw(self, amount):
        self.balance -= amount
        return self.balance

    @operation(write=True)
    def deposit(self, amount):
        self.balance += amount
        return self.balance

    @operation(write=True, guard=lambda self: self.balance > 0)
    def drain(self):
        self.balance = 0


class PackedAccount(Account):
    """Keeps its state in a custom layout and counts trips through it."""

    marshalled = 0
    unmarshalled = 0

    def marshal_state(self):
        type(self).marshalled += 1
        return {"packed": [self.balance]}

    def unmarshal_state(self, state):
        type(self).unmarshalled += 1
        self.balance = state["packed"][0]


def replicas_of(spec_class, balances):
    return {obj_id: Replica(obj_id, f"acct{obj_id}", spec_class.create((balance,)))
            for obj_id, balance in enumerate(balances)}


def steps_of(spec_class, replicas, group):
    return [(obj_id, replicas[obj_id], spec_class.operation_def(op_name), args, {})
            for obj_id, op_name, args in group]


def reference_vote(steps):
    """Clone every object at its first touch and run every sub-operation in
    order: the first rejection names its object."""
    clones = {}
    for obj_id, replica, op, args, kwargs in steps:
        if obj_id not in clones:
            clones[obj_id] = replica.instance.clone()
        if execute_operation(clones[obj_id], op, args, kwargs) is RETRY:
            return obj_id
    return None


SUB_OPS = st.one_of(
    st.tuples(st.just("withdraw"), st.tuples(st.integers(0, 120))),
    st.tuples(st.just("deposit"), st.tuples(st.integers(0, 120))),
    st.tuples(st.just("drain"), st.just(())),
)


class TestGuardVote:
    @settings(max_examples=300, deadline=None)
    @given(balances=st.lists(st.integers(0, 150), min_size=1, max_size=3),
           picks=st.lists(st.tuples(st.integers(0, 2), SUB_OPS),
                          min_size=1, max_size=7))
    def test_equals_the_clone_and_replay_reference(self, balances, picks):
        group = [(obj % len(balances), name, args) for obj, (name, args) in picks]
        replicas = replicas_of(Account, balances)
        steps = steps_of(Account, replicas, group)
        assert guard_vote(steps) == reference_vote(steps)
        # A vote applies nothing, whichever way it goes.
        assert [r.instance.balance for r in replicas.values()] == balances

    def test_second_guard_sees_the_first_effect(self):
        replicas = replicas_of(Account, [100, 100])
        group = [(1, "deposit", (5,)), (0, "withdraw", (60,)),
                 (0, "withdraw", (60,))]
        assert guard_vote(steps_of(Account, replicas, group)) == 0
        assert guard_vote(steps_of(Account, replicas, group[:2])) is None
        assert replicas[0].instance.balance == 100

    def test_unguarded_effects_reach_a_later_guard(self):
        replicas = replicas_of(Account, [10])
        group = [(0, "deposit", (50,)), (0, "deposit", (50,)),
                 (0, "withdraw", (105,)), (0, "withdraw", (10,))]
        assert guard_vote(steps_of(Account, replicas, group[:3])) is None
        assert guard_vote(steps_of(Account, replicas, group)) == 0

    def test_a_needed_clone_goes_through_the_types_own_marshalling(self):
        replicas = replicas_of(PackedAccount, [100, 100])
        PackedAccount.marshalled = PackedAccount.unmarshalled = 0
        transfer = [(0, "withdraw", (60,)), (1, "deposit", (60,))]
        assert guard_vote(steps_of(PackedAccount, replicas, transfer)) is None
        assert (PackedAccount.marshalled, PackedAccount.unmarshalled) == (0, 0)
        twice = [(0, "withdraw", (60,)), (0, "withdraw", (60,))]
        assert guard_vote(steps_of(PackedAccount, replicas, twice)) == 0
        assert (PackedAccount.marshalled, PackedAccount.unmarshalled) == (1, 1)


def build(num_nodes=3, num_accounts=2, balance=100):
    """Broadcast-managed accounts, one per shard of a two-shard cluster."""
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=7))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=2,
                    placement={f"acct{i}": i % 2 for i in range(num_accounts)})
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        for i in range(num_accounts):
            handles[i] = rts.create_object(proc, Account, (balance,),
                                           name=f"acct{i}")

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    return cluster, rts, handles


def transfer(cluster, rts, handles, node_id, src, dst, amount=10, rounds=1):
    def mover():
        proc = cluster.sim.current_process
        for _ in range(rounds):
            rts.transact(proc, [(handles[src], "withdraw", (amount,)),
                                (handles[dst], "deposit", (amount,))])

    cluster.node(node_id).kernel.spawn_thread(mover)


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (a plain or class method)."""
    calls = []
    original = owner.__dict__[name]
    function = getattr(original, "__func__", original)

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name,
                        classmethod(counted) if isinstance(original, classmethod)
                        else counted)
    return calls


class TestUncontendedTransfer:
    def test_no_clone_one_resolution_no_empty_replay(self, monkeypatch):
        cluster, rts, handles = build()
        with cluster:
            assert rts.shard_of(handles[0]) != rts.shard_of(handles[1])
            clones = count_calls(monkeypatch, ObjectSpec, "clone")
            resolutions = count_calls(monkeypatch, ObjectSpec, "operation_def")
            replays = count_calls(monkeypatch, TxnParticipant, "_replay")
            transfer(cluster, rts, handles, 1, 0, 1)
            cluster.run()
            assert rts.stats.txn_cross_shard_commits == 1
            assert clones == []
            # Once per call site: each member resolves each operation once.
            assert sorted(resolutions) == sorted(
                [("deposit",), ("withdraw",)] * len(cluster.nodes))
            assert replays == []
            for node in cluster.nodes:
                manager = rts.managers[node.node_id]
                assert manager.get(handles[0].obj_id).instance.balance == 90
                assert manager.get(handles[1].obj_id).instance.balance == 110


class TestSettledTables:
    def test_tombstones_and_locks_are_empty_after_a_healthy_run(self):
        """Members that deliver an outcome after the coordinator completed
        used to re-mark a tombstone nobody would ever drop."""
        cluster, rts, handles = build(num_nodes=4, num_accounts=4)
        with cluster:
            for node_id, (src, dst) in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)]):
                transfer(cluster, rts, handles, node_id, src, dst, rounds=8)
            cluster.run()
            assert rts.stats.txn_cross_shard_commits == 32
            locks = rts._txn_layer.locks
            assert locks.tombstones == {}
            assert all(held == {} for held in locks.members.values())
            balances = [rts.managers[0].get(h.obj_id).instance.balance
                        for h in handles.values()]
            assert balances == [100, 100, 100, 100]


class TestReleasedQueue:
    MEMBER = 1

    def deliver(self, rts, shard, payload):
        record = DeliveredMessage(seqno=99, origin=0, uid=None, payload=payload,
                                  size=16)
        rts._shard_members[(self.MEMBER, shard)].on_deliver(record)

    def test_queued_items_meet_the_new_lock_without_their_handler(
            self, monkeypatch):
        cluster, rts, handles = build()
        with cluster:
            transfer(cluster, rts, handles, 0, 0, 1)  # builds the layer
            cluster.run()
            obj_id = handles[0].obj_id
            shard = rts.shard_of(handles[0])
            replica = rts.managers[self.MEMBER].get(obj_id)
            locks = rts._txn_layer.locks
            assert replica.instance.balance == 90

            def prepare(txn_id, amount):
                return ("txn-prepare", txn_id, obj_id, 0,
                        ((0, "withdraw", (amount,), {}),), 7)

            def outcome(txn_id, verdict):
                return ("txn-outcome", txn_id, verdict, (obj_id,), 7)

            self.deliver(rts, shard, prepare(101, 10))  # holds the lock
            self.deliver(rts, shard, prepare(102, 20))  # queue: behind 101
            self.deliver(rts, shard, prepare(103, 30))
            self.deliver(rts, shard, outcome(102, "abort"))
            self.deliver(rts, shard, ("op", obj_id, "deposit", (1,), {}, 0, 7))
            held = locks.get(self.MEMBER, obj_id)
            assert (held.owner, len(held.queue)) == (101, 4)
            handlers = rts._txn_layer.participant.handlers
            prepares = []
            monkeypatch.setitem(
                handlers, "txn-prepare",
                lambda *args, on_prepare=handlers["txn-prepare"]: (
                    prepares.append(args[1][1]), on_prepare(*args)))
            deferred = rts.stats.txn_deferred_writes
            # Releasing 101 replays its queue: 102 votes and locks, 103 only
            # queues again (handed over), 102's own outcome must still
            # release 102, which lets 103 vote, and the write queues last.
            self.deliver(rts, shard, outcome(101, "commit"))
            held = locks.get(self.MEMBER, obj_id)
            assert (held.owner, held.mode) == (103, MODE_PREPARED)
            assert [item[0] for item in held.queue] == ["write"]
            assert replica.instance.balance == 80
            assert prepares == [102, 103]
            assert rts.stats.txn_deferred_writes == deferred + 1
            self.deliver(rts, shard, outcome(103, "commit"))
            assert locks.get(self.MEMBER, obj_id) is None
            assert replica.instance.balance == 51


class TestSeedShapes:
    def test_seed_round_trip_ships_plain_tuples_and_wipe_clears_in_place(self):
        table = MemberLockTable(range(3))
        donor_locks, joiner_locks = table.members[0], table.members[2]
        entry = donor_locks[5] = LockEntry(41, MODE_PREPARED,
                                           ((0, "withdraw", (10,), {}),))
        entry.queue.append(("write", "deposit", (1,), {}, 0, 7, 1, 99))
        donor_locks[6] = LockEntry(42, MODE_PREPARED)  # another shard's object
        table.mark_outcome(0, 40, (5, 6), "abort")
        table.mark_outcome(1, 40, (5,), "abort")
        seed = table.seed_state(0, {5})
        assert seed == {
            "entries": [(5, 41, MODE_PREPARED, ((0, "withdraw", (10,), {}),),
                         (("write", "deposit", (1,), {}, 0, 7, 1, 99),))],
            "outcomes": [(40, 5, "abort")],
        }
        table.install_seed(2, seed)
        assert table.seed_state(2, {5}) == seed
        assert table.get(2, 5).queue == list(seed["entries"][0][4])
        table.wipe_node(2)
        assert table.members[2] is joiner_locks and joiner_locks == {}
        assert table.tombstones == {40: {(0, 5): "abort", (0, 6): "abort",
                                         (1, 5): "abort"}}
        table.forget_txn(40)
        assert table.tombstones == {}
