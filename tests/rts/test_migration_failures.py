"""Migration under failure: policy switches racing sequencer crashes.

The switch message rides the object's shard broadcast, so a migration must
inherit every guarantee of that layer — including exactly-once delivery in
one agreed total order across a sequencer crash, targeted packet loss, and
the resulting election.  These properties are checked the same way the write
batching was: randomized multi-writer workloads (hypothesis-driven seeds)
whose observable state must show **no lost and no doubly-applied write** and
per-client FIFO order, across a broadcast -> primary-copy migration that
happens while the source shard's sequencer crashes mid-transfer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba.broadcast.protocol import KIND_DATA
from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.consistency import ConsistencyChecker, HistoryRecorder
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 4
CLIENTS_PER_NODE = 2
OPS_PER_CLIENT = 10
#: The crasher fires at this virtual time; migration start offsets around it
#: are what hypothesis explores.
CRASH_AT = 0.006


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


def run_crash_migration(seed, migrate_offset, crash=True, drop_data_to=None,
                        batching=None):
    """One randomized run: writers on all nodes, a migration to primary-copy
    racing a sequencer crash (plus optional targeted loss); returns the
    observable state."""
    import random

    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast", batching=batching,
                    record_history=True)
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        handles["log"] = rts.create_object(proc, AppendLog, name="log")
        handles["counter"] = rts.create_object(proc, Counter, (0,),
                                               name="counter")

    def client(node_id, client_id):
        proc = cluster.sim.current_process
        rng = random.Random(f"{seed}/{node_id}/{client_id}")
        for k in range(OPS_PER_CLIENT):
            rts.invoke(proc, handles["log"], "append",
                       ((node_id, client_id, k),))
            if rng.random() < 0.4:
                rts.invoke(proc, handles["counter"], "add", (1,))
            proc.hold(rng.random() * 0.002)

    def crasher():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT)
        if drop_data_to is not None:
            # Targeted loss first: the victim misses sequenced DATA (which
            # may include the switch itself) and must recover through gap
            # requests / cross-member retransmission.
            data_kind = rts.group.wire_kind(KIND_DATA)

            def drop_data(packet):
                return packet.message.kind == data_kind

            cluster.node(drop_data_to).nic.drop_filter = drop_data

            def lift():
                cluster.node(drop_data_to).nic.drop_filter = None

            cluster.node(drop_data_to).kernel.spawn_thread(
                lambda: (cluster.sim.current_process.hold(0.01), lift()))
        if crash:
            cluster.node(rts.group.sequencer_node_id).crash()

    def migrator():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT + migrate_offset)
        # The primary is pinned to the migrator's own (surviving) node: the
        # interesting crash here is the *sequencer* ordering the switch, not
        # the machine the object lands on (a dead primary's seat is taken
        # over; tests/rts/test_primary_recovery.py covers that).
        rts.migrate(proc, handles["log"], "primary-invalidate", primary=2)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    crashed_node = rts.group.sequencer_node_id if crash else None
    # No clients on the crashing machine: a crashed node's processes simply
    # stop, which the simulator's deadlock check would (rightly) flag.
    for node in cluster.nodes:
        if node.node_id == crashed_node:
            continue
        for client_id in range(CLIENTS_PER_NODE):
            node.kernel.spawn_thread(client, node.node_id, client_id)
    # The migrator runs on a node that is never the initial sequencer, so it
    # survives the crash.
    cluster.node(2).kernel.spawn_thread(migrator)
    cluster.node(1).kernel.spawn_thread(crasher)
    cluster.run()

    primary = rts.directory.primary_of(handles["log"].obj_id)
    assert cluster.node(primary).alive
    log_items = [tuple(item) for item in
                 rts.managers[primary].get(handles["log"].obj_id).instance.items]
    counters = {
        node.node_id: rts.managers[node.node_id].get(
            handles["counter"].obj_id).instance.value
        for node in cluster.nodes if node.alive
    }
    state = {
        "log": log_items,
        "counters": counters,
        "elections": rts.group.stats.elections,
        "policy": rts.policy_of(handles["log"]),
        "migrations": [(m.target, m.primary_node) for m in rts.migrations],
        "history": rts.history,
        "crashed": crashed_node,
    }
    cluster.shutdown()
    return state


def check_write_histories(state):
    """Surviving machines applied identical write sequences per object; the
    crashed machine's (partial) history is a prefix of that agreed order."""
    history = state["history"]
    crashed = state["crashed"]
    survivors = HistoryRecorder(enabled=True)
    survivors.writes = {nid: objects for nid, objects in history.writes.items()
                        if nid != crashed}
    survivors.reads = history.reads
    ConsistencyChecker(survivors).check_write_order_agreement()
    ConsistencyChecker(survivors).check_process_monotonicity()
    if crashed in history.writes:
        reference_node = next(iter(survivors.writes))
        for obj_id, records in history.writes[crashed].items():
            ops = [(r.seqno, r.op_name, r.args) for r in records]
            full = [(r.seqno, r.op_name, r.args)
                    for r in survivors.writes[reference_node].get(obj_id, [])]
            assert ops == full[:len(ops)], (
                f"crashed node's history of object {obj_id} is not a prefix")


def assert_no_lost_or_duplicated_writes(state):
    """Every client's appends applied exactly once, in that client's order."""
    per_client = {}
    for node_id, client_id, k in state["log"]:
        per_client.setdefault((node_id, client_id), []).append(k)
    expected = {(n, c) for n in range(NUM_NODES)
                for c in range(CLIENTS_PER_NODE) if n != state["crashed"]}
    assert set(per_client) == expected
    for client, ks in sorted(per_client.items()):
        assert ks == list(range(OPS_PER_CLIENT)), (
            f"client {client}: appends lost, duplicated or reordered: {ks}")


class TestMigrationDuringSequencerCrash:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           migrate_offset=st.sampled_from([-0.002, -0.0005, 0.0, 0.0005]))
    def test_no_lost_or_double_writes_across_crash(self, seed, migrate_offset):
        """The object migrates broadcast -> primary-copy while the shard's
        sequencer crashes mid-transfer; every write still applies exactly
        once, in per-client issue order."""
        state = run_crash_migration(seed, migrate_offset)
        assert state["policy"] == "primary-invalidate"
        assert state["migrations"] == [("primary-invalidate",
                                        state["migrations"][0][1])]
        assert_no_lost_or_duplicated_writes(state)
        # The counter stayed broadcast-managed: all survivors agree on it,
        # with no lost updates possible to hide (totals checked vs history).
        values = set(state["counters"].values())
        assert len(values) == 1, state["counters"]
        # Writes the machines applied agree in content and order per object
        # (the linearisation checker from the batching property suite).
        check_write_histories(state)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_migration_with_targeted_data_loss(self, seed):
        """One member additionally loses every sequenced DATA packet for a
        window around the crash (nic.drop_filter), so it must recover the
        switch through retransmission before it can serve the new regime."""
        state = run_crash_migration(seed, migrate_offset=-0.0005,
                                    drop_data_to=3)
        assert state["policy"] == "primary-invalidate"
        assert_no_lost_or_duplicated_writes(state)
        check_write_histories(state)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batched_writes_migrate_cleanly_across_crash(self, seed):
        """Write batching composes with migration under failure: entries in
        a batch for the migrated object are dropped-and-reissued as a unit
        decision at every member."""
        state = run_crash_migration(seed, migrate_offset=0.0,
                                    batching={"max_batch": 4})
        assert state["policy"] == "primary-invalidate"
        assert_no_lost_or_duplicated_writes(state)
        check_write_histories(state)

    def test_lost_switch_with_quiet_group_recovers_via_probe(self):
        """Regression (hypothesis-found, seed 38496): the victim loses the
        DATA carrying the migration switch, and — the object having moved
        off the broadcast path — no later broadcast ever reveals the gap.
        The deferred invalidation is out-of-band evidence of the loss; the
        member's lag probe must recover the switch from a peer's retained
        history instead of wedging the new primary's fan-out forever."""
        state = run_crash_migration(38496, migrate_offset=-0.0005,
                                    drop_data_to=3)
        assert state["policy"] == "primary-invalidate"
        assert_no_lost_or_duplicated_writes(state)
        check_write_histories(state)

    def test_migration_without_crash_is_quiet(self):
        """Control run: no crash, no election — the switch alone does not
        disturb the group."""
        state = run_crash_migration(seed=77, migrate_offset=0.0, crash=False)
        assert state["elections"] == 0
        assert state["policy"] == "primary-invalidate"
        assert_no_lost_or_duplicated_writes(state)


PRIMARY, INITIATOR, WRITER, LATER = 0, 1, 2, 3


def run_initiator_crash(switch, crash_on):
    """A switch of a primary-copy counter is started from ``INITIATOR`` (not
    the primary), which crashes while the primary serves its freeze: on the
    freeze request reaching the primary (``"rpc.request"``, the freeze has
    not landed yet) or on the snapshot reply coming back (``"rpc.reply"``,
    the object is frozen).  A writer then writes and a second switch is
    tried from another machine; returns what they saw."""
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=3))
    rts = HybridRts(cluster, default_policy="broadcast")
    handles, seen = {}, {}

    def switch_from(proc):
        if switch == "migrate":
            return rts.migrate(proc, handles["c"], "broadcast")
        return rts.relocate_primary(proc, handles["c"], target=LATER)

    def setup():
        proc = cluster.sim.current_process
        handles["c"] = rts.create_object(proc, Counter, (0,), name="c",
                                         policy="primary-update")

    def doomed_initiator():
        proc = cluster.sim.current_process
        proc.hold(0.04)
        watched, peer = ((PRIMARY, INITIATOR) if crash_on == "rpc.request"
                         else (INITIATOR, PRIMARY))

        def crash_initiator(packet):
            if (packet.message.kind == crash_on
                    and packet.message.src == peer
                    and cluster.node(INITIATOR).alive):
                cluster.node(INITIATOR).crash()
            return False

        cluster.node(watched).nic.drop_filter = crash_initiator
        switch_from(proc)

    def writer():
        proc = cluster.sim.current_process
        proc.hold(0.05)
        seen["write"] = rts.invoke(proc, handles["c"], "add", (1,))

    def later_initiator():
        proc = cluster.sim.current_process
        proc.hold(1.0)
        seen["second"] = switch_from(proc)
        seen["after"] = rts.invoke(proc, handles["c"], "add", (1,))

    with cluster:
        cluster.node(PRIMARY).kernel.spawn_thread(setup)
        cluster.run()
        cluster.node(INITIATOR).kernel.spawn_thread(doomed_initiator)
        cluster.node(WRITER).kernel.spawn_thread(writer)
        cluster.node(LATER).kernel.spawn_thread(later_initiator)
        # Bounded: a writer bouncing off a wedged freeze retries forever.
        cluster.run(until=2.0)
        seen["crashed"] = not cluster.node(INITIATOR).alive
        seen["policy"] = rts.policy_of(handles["c"])
        seen["primary"] = rts.directory.primary_of(handles["c"].obj_id)
    return seen


class TestInitiatorCrashBetweenFreezeAndSwitch:
    """Regression: the initiator of a migration or seat relocation died
    between freezing the object at its primary and broadcasting the switch;
    the freeze and the in-progress mark were never cleared, so every later
    write bounced forever and every later switch was refused."""

    @pytest.mark.parametrize("crash_on", ["rpc.request", "rpc.reply"])
    @pytest.mark.parametrize("switch", ["migrate", "relocate"])
    def test_object_stays_writable_and_switchable(self, switch, crash_on):
        seen = run_initiator_crash(switch, crash_on)
        assert seen["crashed"]
        assert seen.get("write") == 1, "the writer never got past the freeze"
        assert seen.get("second") is True, "a later switch was still refused"
        assert seen["after"] == 2
        if switch == "migrate":
            assert seen["policy"] == "broadcast"
        else:
            assert seen["primary"] == LATER
