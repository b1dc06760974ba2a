"""Crash-churn properties of the transaction layer.

Hypothesis drives seeds through four adversarial schedules — the
coordinator's node dying mid-protocol, a participant's primary seat dying
mid-protocol, ``move_shard`` racing live transactions, and a policy
migration racing them — and asserts the bank invariant each time: the
balances always sum to the initial endowment (all-or-nothing held), and
wherever every client survived, each account lands on the *exact* balance
its committed transfers predict (exactly-once held, per account).
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RtsError, TransactionAborted
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 5
VICTIM = NUM_NODES - 1
NUM_ACCOUNTS = 6
INITIAL = 100
ROUNDS = 6


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


def build(seed, policies=("broadcast",), num_shards=2):
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast",
                    num_shards=num_shards)
    handles = []

    def setup():
        proc = cluster.sim.current_process
        for i in range(NUM_ACCOUNTS):
            handles.append(rts.create_object(
                proc, Account, (INITIAL,), name=f"acct{i}",
                policy=policies[i % len(policies)]))

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    return cluster, rts, handles


def mover(cluster, rts, handles, node_id, client_id, seed, ledger):
    """One client moving money around; commits are logged into ``ledger``."""
    proc = cluster.sim.current_process
    rng = random.Random(f"{seed}/{node_id}/{client_id}")
    for _ in range(ROUNDS):
        src = rng.randrange(NUM_ACCOUNTS)
        dst = (src + 1 + rng.randrange(NUM_ACCOUNTS - 1)) % NUM_ACCOUNTS
        amount = rng.randrange(1, 6)
        try:
            rts.transact(proc, [(handles[src], "withdraw", (amount,)),
                                (handles[dst], "deposit", (amount,))],
                         on_guard="abort")
        except TransactionAborted:
            continue
        ledger.append((src, dst, amount))
        proc.hold(0.0002)


def settle_and_check(cluster, rts, handles, ledger=None):
    """Read every balance at a quiescent point; assert the bank invariant."""
    balances = {}

    def reader():
        proc = cluster.sim.current_process
        for i, handle in enumerate(handles):
            balances[i] = rts.invoke(proc, handle, "read")

    host = next(n.node_id for n in cluster.nodes if n.alive)
    cluster.node(host).kernel.spawn_thread(reader)
    cluster.run()
    total = sum(balances.values())
    assert total == NUM_ACCOUNTS * INITIAL, (
        f"conservation broken: {total} != {NUM_ACCOUNTS * INITIAL} "
        f"(balances {balances})")
    if ledger is not None:
        # Every client survived, so every transfer's outcome is known and
        # the per-account balance is fully determined: exactly-once.
        expected = {i: INITIAL for i in range(NUM_ACCOUNTS)}
        for src, dst, amount in ledger:
            expected[src] -= amount
            expected[dst] += amount
        assert balances == expected, (
            f"committed transfers applied wrong: {balances} != {expected}")
    return balances


def assert_all_settled(rts):
    layer = rts._txn_layer
    if layer is None:
        return
    open_txns = [d for d in layer.descs.values() if not d.done]
    assert not open_txns, f"unsettled transactions: {open_txns}"
    assert not layer._pinned, f"leaked pins: {layer._pinned}"


class TestCoordinatorCrash:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_conservation_survives_coordinator_death(self, seed):
        cluster, rts, handles = build(seed)
        try:
            # Clients everywhere, including the victim: whatever protocol
            # step node 4 dies in, its orphaned transactions must resolve.
            for node in cluster.nodes:
                for client_id in range(2):
                    node.kernel.spawn_thread(
                        mover, cluster, rts, handles, node.node_id,
                        client_id, seed, [])

            def crasher():
                # Relative to the run's start: the setup run already
                # consumed virtual time, so an absolute target would land
                # in the past and fire before any transfer is in flight.
                proc = cluster.sim.current_process
                proc.hold(0.004)
                cluster.node(VICTIM).crash()

            cluster.node(0).kernel.spawn_thread(crasher)
            cluster.run()
            settle_and_check(cluster, rts, handles)
            assert_all_settled(rts)
        finally:
            cluster.shutdown()


class TestParticipantPrimaryCrash:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_exactly_once_survives_primary_death(self, seed):
        # Half the accounts are primary-copy with their seats parked on the
        # victim, so live 2PC seat acquisitions race the takeover.
        cluster, rts, handles = build(
            seed, policies=("broadcast", "primary-invalidate",
                            "broadcast", "primary-update"))
        ledger = []
        try:
            def park_seats():
                proc = cluster.sim.current_process
                for handle in handles:
                    if rts.policy_of(handle) in ("primary-invalidate",
                                                 "primary-update"):
                        rts.relocate_primary(proc, handle, target=VICTIM)

            cluster.node(0).kernel.spawn_thread(park_seats)
            cluster.run()

            # Clients only on surviving nodes: every outcome is observed,
            # so the final balances are exactly determined by the ledger.
            for node in cluster.nodes[:VICTIM]:
                node.kernel.spawn_thread(
                    mover, cluster, rts, handles, node.node_id, 0, seed,
                    ledger)

            def crasher():
                proc = cluster.sim.current_process
                proc.hold(0.003)
                cluster.node(VICTIM).crash()

            cluster.node(0).kernel.spawn_thread(crasher)
            cluster.run()
            settle_and_check(cluster, rts, handles, ledger)
            assert_all_settled(rts)
        finally:
            cluster.shutdown()


class TestReconfigurationRaces:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_move_shard_races_live_transactions(self, seed):
        cluster, rts, handles = build(seed)
        ledger = []
        try:
            for node in cluster.nodes:
                node.kernel.spawn_thread(
                    mover, cluster, rts, handles, node.node_id, 0, seed,
                    ledger)

            def churner():
                proc = cluster.sim.current_process
                rng = random.Random(f"{seed}/churn")
                for _ in range(6):
                    proc.hold(0.0006)
                    handle = handles[rng.randrange(NUM_ACCOUNTS)]
                    target = (rts.shard_of(handle) + 1) % 2
                    # Pinned participants refuse the move; that refusal is
                    # part of what this test exercises.
                    rts.move_shard(proc, handle, target)

            cluster.node(0).kernel.spawn_thread(churner)
            cluster.run()
            settle_and_check(cluster, rts, handles, ledger)
            assert_all_settled(rts)
        finally:
            cluster.shutdown()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_policy_migration_races_live_transactions(self, seed):
        cluster, rts, handles = build(seed)
        ledger = []
        try:
            for node in cluster.nodes:
                node.kernel.spawn_thread(
                    mover, cluster, rts, handles, node.node_id, 0, seed,
                    ledger)

            def migrator():
                proc = cluster.sim.current_process
                rng = random.Random(f"{seed}/migrate")
                flips = ["primary-invalidate", "broadcast",
                         "primary-update", "broadcast"]
                for flip in flips:
                    proc.hold(0.0007)
                    handle = handles[rng.randrange(NUM_ACCOUNTS)]
                    try:
                        rts.migrate(proc, handle, flip)
                    except RtsError:
                        # Already under that policy; irrelevant here.
                        pass

            cluster.node(0).kernel.spawn_thread(migrator)
            cluster.run()
            settle_and_check(cluster, rts, handles, ledger)
            assert_all_settled(rts)
        finally:
            cluster.shutdown()


class TestRejoinUnderTransactions:
    def test_recovered_member_reseeds_txn_state_and_converges(self):
        """A member crashes and recovers while transfers run: its rejoin
        carries the transaction layer's lock state through the seeds, and
        it ends with copies equal to a donor's and the money conserved."""
        seed = 5
        cluster, rts, handles = build(seed)
        ledger = []
        hooks = {"on_node_recover": 0, "seed_state": 0, "install_seed": 0}
        try:
            # Clients only on surviving nodes: every outcome is observed.
            for node in cluster.nodes[:VICTIM]:
                node.kernel.spawn_thread(
                    mover, cluster, rts, handles, node.node_id, 0, seed,
                    ledger)

            def count(layer, name):
                hook = getattr(layer, name)

                def counted(*args):
                    hooks[name] += 1
                    return hook(*args)

                setattr(layer, name, counted)

            def churner():
                proc = cluster.sim.current_process
                proc.hold(0.002)
                # The movers' first transfers built the layer.
                assert rts._txn_layer is not None
                for name in hooks:
                    count(rts._txn_layer, name)
                cluster.node(VICTIM).crash()
                proc.hold(0.003)
                cluster.node(VICTIM).recover()

            cluster.node(0).kernel.spawn_thread(churner)
            cluster.run(until=cluster.sim.now + 2.0)

            assert hooks["on_node_recover"] == 1
            assert hooks["seed_state"] >= 1 and hooks["install_seed"] >= 1
            assert rts.is_caught_up(VICTIM)
            for handle in handles:
                mine = rts.managers[VICTIM].get(handle.obj_id)
                donor = rts.managers[0].get(handle.obj_id)
                assert mine.instance.balance == donor.instance.balance
                assert mine.version == donor.version
            settle_and_check(cluster, rts, handles, ledger)
            assert_all_settled(rts)
        finally:
            cluster.shutdown()


class TestDuplicateDecide:
    def test_a_recovery_decide_behind_a_later_lock_does_not_wedge(self):
        """Seed 11, node 4 crashed after event 120: the dead coordinator's
        commit decide and a recovery pass's abort decide for txn 10 are both
        sequenced.  The first releases obj 2, and txn 13's prepare takes it;
        the duplicate must not queue behind that lock, or the recovery
        daemon, txn 13's coordinator and txn 10's lock on obj 3 wait on one
        another and the run deadlocks."""
        cluster, rts, handles = build(11)
        try:
            for node in cluster.nodes:
                for client_id in range(2):
                    node.kernel.spawn_thread(
                        mover, cluster, rts, handles, node.node_id,
                        client_id, 11, [])
            cluster.sim.run(max_events=120)
            cluster.node(VICTIM).crash()
            cluster.run()
            settle_and_check(cluster, rts, handles)
            assert_all_settled(rts)
        finally:
            cluster.shutdown()
