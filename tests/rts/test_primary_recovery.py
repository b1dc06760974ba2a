"""Primary-failure recovery: takeovers racing writes, migrations, moves.

A primary-copy object used to die with its primary (as in the paper); the
unified runtime now elects the surviving secondary with the freshest
coherence version (ties to the lowest node id) — or restores the last
committed record when no valid copy survived, the primary-invalidate worst
case — and re-seats the object through an epoch-stamped ``takeover`` switch
in the object's shard order.  These tests drive randomized multi-writer
workloads (hypothesis seeds) into a primary crash that races, in turn: the
writes themselves, a policy migration, a cross-group shard move, and a
sequencer crash (so the takeover switch itself must survive an election).
The observable state must always show exactly-once, per-client-FIFO writes.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RtsError
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 5
#: The reserved victim node hosting the doomed primary seat (no clients).
PRIMARY_NODE = 4
CLIENTS_PER_NODE = 2
OPS_PER_CLIENT = 8
CRASH_AT = 0.006


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


def run_primary_crash(seed, policy="primary-invalidate", race=None,
                      race_offset=0.0, crash_sequencer=False, num_shards=1,
                      read_mix=0.3):
    """One randomized run: writers on every surviving node hammer a
    primary-copy log (plus a broadcast counter) while the primary's node
    crashes; optional concurrent races.  Returns the observable state."""
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast",
                    num_shards=num_shards)
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        handles["log"] = rts.create_object(proc, AppendLog, name="log",
                                           policy=policy)
        handles["counter"] = rts.create_object(proc, Counter, (0,),
                                               name="counter")
        # Park the doomed seat on the reserved victim node.
        rts.relocate_primary(proc, handles["log"], target=PRIMARY_NODE)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    assert rts.directory.primary_of(handles["log"].obj_id) == PRIMARY_NODE

    # The sequencer of the log's shard must not host clients when we crash
    # it too (its processes would die with it).
    log_sequencer = rts.router.group_for(
        rts.shard_of(handles["log"])).sequencer_node_id
    skip_clients = {PRIMARY_NODE}
    if crash_sequencer:
        skip_clients.add(log_sequencer)

    def client(node_id, client_id):
        proc = cluster.sim.current_process
        rng = random.Random(f"{seed}/{node_id}/{client_id}")
        for k in range(OPS_PER_CLIENT):
            rts.invoke(proc, handles["log"], "append",
                       ((node_id, client_id, k),))
            if rng.random() < read_mix:
                # Reads pull secondary copies onto some machines, so both
                # recovery paths (freshest copy vs. committed record) occur.
                rts.invoke(proc, handles["log"], "snapshot")
            if rng.random() < 0.4:
                rts.invoke(proc, handles["counter"], "add", (1,))
            proc.hold(rng.random() * 0.002)

    def crasher():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT)
        cluster.node(PRIMARY_NODE).crash()
        if crash_sequencer:
            cluster.node(log_sequencer).crash()

    def racer():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT + race_offset)
        if race == "migration":
            # Policy migration racing the crash (either may win; the loser
            # must abort cleanly).
            rts.migrate(proc, handles["log"], "broadcast")
        elif race == "shard-move":
            rts.move_shard(proc, handles["log"], 1)

    for node in cluster.nodes:
        if node.node_id in skip_clients:
            continue
        for client_id in range(CLIENTS_PER_NODE):
            node.kernel.spawn_thread(client, node.node_id, client_id)
    cluster.node(1).kernel.spawn_thread(crasher)
    if race is not None:
        cluster.node(2).kernel.spawn_thread(racer)
    cluster.run()

    primary = rts.directory.primary_of(handles["log"].obj_id)
    mechanism_primary = rts.policy_of(handles["log"]) != "broadcast"
    if mechanism_primary:
        assert cluster.node(primary).alive
        log_items = [tuple(item) for item in
                     rts.managers[primary].get(
                         handles["log"].obj_id).instance.items]
    else:
        # The racing migration won: every live replica must agree.
        replicas = [
            [tuple(item) for item in
             rts.managers[n.node_id].get(handles["log"].obj_id).instance.items]
            for n in cluster.nodes
            if n.alive and rts.managers[n.node_id].has_valid_copy(
                handles["log"].obj_id)
        ]
        assert replicas and all(r == replicas[0] for r in replicas)
        log_items = replicas[0]
    counters = {
        node.node_id: rts.managers[node.node_id].get(
            handles["counter"].obj_id).instance.value
        for node in cluster.nodes if node.alive
    }
    state = {
        "log": log_items,
        "counters": counters,
        "policy": rts.policy_of(handles["log"]),
        "primary": primary,
        "recoveries": [(r.name, r.old_primary, r.new_primary,
                        r.from_snapshot, r.window) for r in rts.recoveries],
        "dedup": rts.stats.deduplicated_writes,
        "skip_clients": skip_clients,
    }
    cluster.shutdown()
    return state


def assert_exactly_once_fifo(state):
    """Every surviving client's appends applied exactly once, in order."""
    per_client = {}
    for node_id, client_id, k in state["log"]:
        per_client.setdefault((node_id, client_id), []).append(k)
    expected = {(n, c) for n in range(NUM_NODES)
                for c in range(CLIENTS_PER_NODE)
                if n not in state["skip_clients"]}
    assert set(per_client) == expected, (set(per_client), expected)
    for client, ks in sorted(per_client.items()):
        assert ks == list(range(OPS_PER_CLIENT)), (
            f"client {client}: appends lost, duplicated or reordered: {ks}")
    # The broadcast counter is untouched by the takeover: survivors agree.
    assert len(set(state["counters"].values())) == 1, state["counters"]


class TestPrimaryCrashMidWrite:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           policy=st.sampled_from(["primary-invalidate", "primary-update"]))
    # A client process on the crashed seat reaches the commit after its
    # replica was discarded; drawn seeds find this about once in ten.
    @example(seed=15, policy="primary-invalidate")
    def test_writes_survive_primary_crash(self, seed, policy):
        state = run_primary_crash(seed, policy=policy)
        assert state["policy"] == policy
        assert state["primary"] != PRIMARY_NODE
        assert state["recoveries"], state
        assert state["recoveries"][0][1] == PRIMARY_NODE
        assert_exactly_once_fifo(state)

    def test_invalidate_falls_back_to_committed_record(self):
        """With no reads, no secondary ever holds a valid copy of an
        invalidate-managed object: the takeover must restore the last
        totally-ordered committed state from the record."""
        state = run_primary_crash(seed=1234, policy="primary-invalidate",
                                  read_mix=0.0)
        assert state["recoveries"], state
        assert state["recoveries"][0][3] is True  # from_snapshot
        assert_exactly_once_fifo(state)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_update_promotes_freshest_secondary(self, seed):
        """Update-managed objects keep live secondaries; the takeover must
        promote one (never the record) and keep every write."""
        state = run_primary_crash(seed, policy="primary-update")
        assert state["recoveries"], state
        assert state["recoveries"][0][3] is False  # from a surviving copy
        assert_exactly_once_fifo(state)


class TestPrimaryCrashRacingMigration:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           race_offset=st.sampled_from([-0.002, -0.0005, 0.0, 0.0005]))
    def test_crash_racing_policy_migration(self, seed, race_offset):
        """The primary dies while a primary -> broadcast migration may be
        freezing it.  Whichever wins, no write is lost or doubled."""
        state = run_primary_crash(seed, policy="primary-update",
                                  race="migration", race_offset=race_offset)
        assert state["policy"] in ("primary-update", "broadcast")
        assert_exactly_once_fifo(state)


class TestPrimaryCrashRacingShardMove:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           race_offset=st.sampled_from([-0.002, 0.0, 0.0005]))
    def test_crash_racing_shard_move(self, seed, race_offset):
        """The object's switch order moves to another broadcast group around
        the same instant its primary dies; the takeover must ride whichever
        group currently orders the object."""
        state = run_primary_crash(seed, policy="primary-invalidate",
                                  race="shard-move", race_offset=race_offset,
                                  num_shards=2)
        assert state["recoveries"], state
        assert_exactly_once_fifo(state)


class TestPrimaryCrashRacingElection:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_takeover_survives_sequencer_crash(self, seed):
        """The primary AND the shard's sequencer die together: the takeover
        switch must survive the election and still land exactly once in the
        agreed order."""
        state = run_primary_crash(seed, policy="primary-update",
                                  crash_sequencer=True)
        assert state["recoveries"], state
        assert_exactly_once_fifo(state)


class TestRelocationAborts:
    def _run(self, crash_delay):
        """relocate_primary toward a node that dies around the switch."""
        cluster = Cluster(ClusterConfig(num_nodes=4, seed=5))
        rts = HybridRts(cluster, default_policy="primary-update")
        handles = {}
        outcome = {}

        def setup():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(proc, Counter, (0,), name="c")

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()

        def writer(node_id):
            proc = cluster.sim.current_process
            for _ in range(12):
                rts.invoke(proc, handles["c"], "add", (1,))
                proc.hold(0.0008)

        def relocator():
            proc = cluster.sim.current_process
            proc.hold(0.002)
            outcome["relocated"] = rts.relocate_primary(proc, handles["c"],
                                                        target=3)

        def crasher():
            proc = cluster.sim.current_process
            proc.hold(0.002 + crash_delay)
            cluster.node(3).crash()

        for node_id in (0, 1, 2):
            cluster.node(node_id).kernel.spawn_thread(writer, node_id)
        cluster.node(1).kernel.spawn_thread(relocator)
        cluster.node(2).kernel.spawn_thread(crasher)
        cluster.run()

        primary = rts.directory.primary_of(handles["c"].obj_id)
        assert cluster.node(primary).alive
        value = rts.managers[primary].get(handles["c"].obj_id).instance.value
        cluster.shutdown()
        return outcome, primary, value

    def test_relocation_to_node_that_crashes_mid_switch_aborts_cleanly(self):
        """The chosen seat dies while (or right after) the relocation's
        snapshot switch is in flight: the relocation either aborts before
        flipping the seat or the takeover immediately re-seats the object —
        either way every write lands exactly once on a live primary."""
        for crash_delay in (0.0, 0.0002, 0.0006, 0.0015):
            outcome, primary, value = self._run(crash_delay)
            assert primary != 3
            assert value == 36, (crash_delay, outcome, value)

    def test_relocation_away_from_crashed_seat_refuses(self):
        """Relocating an object whose current primary is already dead is
        refused (the crash takeover owns the object)."""
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=9))
        rts = HybridRts(cluster, default_policy="primary-invalidate")
        handles = {}
        outcome = {}

        def body():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(proc, Counter, (0,), name="c")
            rts.relocate_primary(proc, handles["c"], target=2)
            proc.hold(0.002)
            cluster.node(2).crash()
            outcome["second"] = rts.relocate_primary(proc, handles["c"],
                                                     target=1)

        cluster.node(0).kernel.spawn_thread(body)
        cluster.run()
        assert outcome["second"] is False
        # ... but the takeover still re-seated it on a live node.
        assert cluster.node(rts.directory.primary_of(
            handles["c"].obj_id)).alive
        cluster.shutdown()


class TestNoRecoveryWithoutBroadcast:
    def test_point_to_point_cluster_reports_lost_object(self):
        """On a switched (no-broadcast) network the paper's semantics hold:
        a primary crash loses the object, and a blocked writer is told so
        instead of hanging forever."""
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=3),
                          network_type="switched")
        rts = HybridRts(cluster, default_policy="primary-update")
        handles = {}
        errors = []

        def setup():
            proc = cluster.sim.current_process
            handles["c"] = rts.create_object(proc, Counter, (0,), name="c")

        def writer():
            proc = cluster.sim.current_process
            try:
                for _ in range(20):
                    rts.invoke(proc, handles["c"], "add", (1,))
                    proc.hold(0.001)
            except RtsError as exc:
                errors.append(str(exc))

        def crasher():
            proc = cluster.sim.current_process
            proc.hold(0.004)
            cluster.node(0).crash()

        cluster.node(0).kernel.spawn_thread(setup)
        cluster.run()
        cluster.node(1).kernel.spawn_thread(writer)
        cluster.node(2).kernel.spawn_thread(crasher)
        cluster.run()
        assert errors and "lost" in errors[0]
        assert rts.stats.primary_recoveries == 0
        cluster.shutdown()
