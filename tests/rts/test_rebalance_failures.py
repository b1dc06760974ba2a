"""Shard moves under failure: cross-group switches racing sequencer crashes.

A shard move rides *two* broadcast groups — a drain switch in the source
order and an arrival marker in the destination order — so it must inherit
exactly-once, totally-ordered delivery across a sequencer crash in either
group.  Mirroring ``test_migration_failures.py``: randomized multi-writer
workloads (hypothesis-driven seeds and move offsets) whose observable state
must show **no lost and no doubly-applied write** and per-client FIFO order,
while the source or the destination group's sequencer crashes mid-move.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.rts.consistency import ConsistencyChecker, HistoryRecorder
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

NUM_NODES = 4
CLIENTS_PER_NODE = 2
OPS_PER_CLIENT = 10
#: The crasher fires at this virtual time; move-start offsets around it are
#: what hypothesis explores.
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


def run_crash_shard_move(seed, move_offset, crash_group=None, batching=None):
    """One randomized run: writers on every surviving node, a cross-group
    move of the hot log racing a sequencer crash in ``crash_group`` (0 =
    source, 1 = destination, None = no crash); returns observable state."""
    import random

    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=2,
                    placement={"log": 0, "counter": 1}, batching=batching,
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
        if crash_group is not None:
            group = rts.router.group_for(crash_group)
            cluster.node(group.sequencer_node_id).crash()

    def mover():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT + move_offset)
        rts.move_shard(proc, handles["log"], 1)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    # The initial seats are node 0 (shard 0) and node 1 (shard 1); no crash
    # can happen before CRASH_AT, so the victim is known at spawn time.
    crashed_node = (rts.router.group_for(crash_group).sequencer_node_id
                    if crash_group is not None else None)
    for node in cluster.nodes:
        if node.node_id == crashed_node:
            continue  # a crashed node's processes would just stop
        for client_id in range(CLIENTS_PER_NODE):
            node.kernel.spawn_thread(client, node.node_id, client_id)
    # The mover runs on node 2, which never hosts an initial seat.
    cluster.node(2).kernel.spawn_thread(mover)
    cluster.node(3).kernel.spawn_thread(crasher)
    cluster.run()

    reference = next(n.node_id for n in cluster.nodes if n.alive)
    logs = {
        node.node_id: [tuple(item) for item in rts.managers[node.node_id]
                       .get(handles["log"].obj_id).instance.items]
        for node in cluster.nodes if node.alive
    }
    counters = {
        node.node_id: rts.managers[node.node_id].get(
            handles["counter"].obj_id).instance.value
        for node in cluster.nodes if node.alive
    }
    state = {
        "log": logs[reference],
        "logs": logs,
        "counters": counters,
        "elections": sum(g.stats.elections for g in rts.router.groups),
        "shard": rts.shard_of(handles["log"]),
        "moves": [(m.src, m.dst) for m in rts.shard_moves],
        "epoch": rts.switch.epoch_of(handles["log"].obj_id),
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
    # Every surviving replica agrees on the whole sequence.
    for node_id, log in state["logs"].items():
        assert log == state["log"], f"node {node_id} diverged"


class TestShardMoveDuringSequencerCrash:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           move_offset=st.sampled_from([-0.002, -0.0005, 0.0, 0.0005]))
    def test_source_sequencer_crash_keeps_exactly_once_fifo(self, seed,
                                                            move_offset):
        """The drain switch (and the pre-move writes it fences) must survive
        the *source* group's sequencer dying mid-move."""
        state = run_crash_shard_move(seed, move_offset, crash_group=0)
        assert state["shard"] == 1
        assert state["moves"] == [(0, 1)]
        assert_no_lost_or_duplicated_writes(state)
        values = set(state["counters"].values())
        assert len(values) == 1, state["counters"]
        check_write_histories(state)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           move_offset=st.sampled_from([-0.002, -0.0005, 0.0, 0.0005]))
    def test_destination_sequencer_crash_keeps_exactly_once_fifo(self, seed,
                                                                 move_offset):
        """Re-issued and fresh writes enter the *destination* order through
        its crash + election without loss or duplication."""
        state = run_crash_shard_move(seed, move_offset, crash_group=1)
        assert state["shard"] == 1
        assert state["moves"] == [(0, 1)]
        assert_no_lost_or_duplicated_writes(state)
        values = set(state["counters"].values())
        assert len(values) == 1, state["counters"]
        check_write_histories(state)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batched_writes_move_cleanly_across_crash(self, seed):
        """Write batching composes with the cross-group barrier: stale
        entries inside a batch drop-and-reissue as one decision at every
        member, even across the source sequencer's crash."""
        state = run_crash_shard_move(seed, move_offset=0.0, crash_group=0,
                                     batching={"max_batch": 4})
        assert state["shard"] == 1
        assert_no_lost_or_duplicated_writes(state)
        check_write_histories(state)

    def test_move_without_crash_is_quiet(self):
        """Control run: no crash, no election — the two-group switch alone
        does not disturb either group."""
        state = run_crash_shard_move(seed=77, move_offset=0.0)
        assert state["elections"] == 0
        assert state["shard"] == 1
        assert state["epoch"] == 1
        assert_no_lost_or_duplicated_writes(state)
        check_write_histories(state)
