"""Tests for the PB/BB totally-ordered reliable broadcast protocols."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba.broadcast import election
from repro.amoeba.broadcast.group import BroadcastGroup
from repro.amoeba.broadcast.protocol import (
    KIND_BB_DATA,
    KIND_COORDINATOR,
    KIND_DATA,
    KIND_RETRANSMIT,
    DeliveredMessage,
    MessageId,
    OrderingEngine,
    SequencerLog,
)
from repro.amoeba.cluster import Cluster
from repro.amoeba.message import Message
from repro.config import BroadcastParams, ClusterConfig, CostModel
from repro.errors import BroadcastError


def make_cluster(n=4, seed=3, method="auto", loss_rate=0.0, network_type="ethernet"):
    cost_model = CostModel().with_overrides(
        network={"loss_rate": loss_rate},
        broadcast={"method": method},
    )
    return Cluster(ClusterConfig(num_nodes=n, cost_model=cost_model, seed=seed),
                   network_type=network_type)


def collect_deliveries(cluster):
    """Install recording delivery handlers; returns {node_id: [(seqno, payload)]}."""
    log = {node.node_id: [] for node in cluster.nodes}
    group = cluster.broadcast_group
    for node in cluster.nodes:
        group.set_delivery_handler(
            node.node_id,
            lambda d, nid=node.node_id: log[nid].append((d.seqno, d.payload)),
        )
    return log


def crash_sequencer(cluster, group):
    """Crash the node holding ``group``'s seat; returns its id."""
    crashed = group.sequencer_node_id
    cluster.node(crashed).crash()
    return crashed


def coordinator(group, sequencer, next_seq, epoch):
    """The announcement a seat on node ``sequencer`` broadcasts."""
    return Message(src=sequencer, dst=None, kind=group.wire_kind(KIND_COORDINATOR),
                   headers={"sequencer": sequencer, "next_seq": next_seq, "epoch": epoch})


def rec(seqno, payload=None, origin=0):
    """The sequenced record the sequencer would have built for ``seqno``."""
    return DeliveredMessage(seqno, origin, MessageId(origin, seqno), payload, 10)


class TestOrderingEngine:
    def test_in_order_delivery(self):
        engine = OrderingEngine()
        first, second = rec(1, "a"), rec(2, "b")
        # The in-sequence arrival comes straight back: the very object
        # offered, and the buffer is never touched.
        assert list(engine.offer(first)) == [first]
        assert engine.buffered_count == 0
        run = engine.offer(second)
        assert len(run) == 1 and run[0] is second
        assert engine.next_expected == 3

    def test_out_of_order_buffered(self):
        engine = OrderingEngine()
        assert not engine.offer(rec(2, "b"))
        assert engine.missing_seqnos() == [1] and engine.has_gap
        assert engine.buffered_count == 1 and engine.buffered(2).payload == "b"
        assert [d.payload for d in engine.offer(rec(1, "a"))] == ["a", "b"]
        assert engine.buffered_count == 0 and not engine.has_gap

    def test_duplicates_discarded(self):
        engine = OrderingEngine()
        assert engine.offer(rec(1, "a"))
        assert not engine.offer(rec(1, "a"))  # already delivered
        engine.offer(rec(3, "c"))
        assert not engine.offer(rec(3, "c"))  # already buffered
        assert engine.duplicates == 2

    def test_bb_data_then_accept(self):
        engine = OrderingEngine()
        assert not engine.offer_bb_data(3, MessageId(3, 1), "x", 10)
        run = engine.offer_accept(1, 3, MessageId(3, 1))
        assert [(d.seqno, d.origin, d.payload) for d in run] == [(1, 3, "x")]

    def test_accept_before_data(self):
        engine = OrderingEngine()
        assert not engine.offer_accept(1, 3, MessageId(3, 1))
        assert engine.missing_seqnos() == [1] and engine.has_gap
        assert [d.payload for d in engine.offer_bb_data(3, MessageId(3, 1), "x", 10)] == ["x"]
        assert not engine.has_gap

    def test_retransmitted_record_settles_a_pending_accept(self):
        engine = OrderingEngine()
        uid = MessageId(3, 1)
        engine.offer_accept(1, 3, uid)
        assert engine.offer(DeliveredMessage(1, 3, uid, "x", 10))
        # The accept is spent: the late BB data is kept as unsequenced data,
        # not promoted to a number that was already delivered.
        assert not engine.offer_bb_data(3, uid, "x", 10)
        assert engine.duplicates == 0 and engine.next_expected == 2

    def test_message_accepted_under_two_numbers(self):
        """Re-sequenced after an election, a message pends under two numbers:
        its data takes the newer one, a retransmission fills the older."""
        engine = OrderingEngine()
        uid = MessageId(3, 1)
        engine.offer_accept(1, 3, uid)
        engine.offer_accept(2, 3, uid)
        assert not engine.offer_bb_data(3, uid, "x", 10)
        assert engine.buffered(2).payload == "x" and engine.missing_seqnos() == [1]
        run = engine.offer(DeliveredMessage(1, 3, uid, "x", 10))
        assert [d.seqno for d in run] == [1, 2]
        assert not engine.has_gap and engine.buffered_count == 0

    def test_sync_heartbeat_reveals_a_lost_tail(self):
        engine = OrderingEngine()
        engine.offer(rec(1))
        assert not engine.has_gap
        engine.note_highest(3)
        assert engine.has_gap and engine.missing_seqnos() == [2, 3]
        assert engine.highest_known_seqno == 3

    def test_fast_forward_skips_and_releases(self):
        engine = OrderingEngine()
        for seqno in (2, 5, 6, 8):
            engine.offer(rec(seqno))
        engine.offer_accept(3, 0, MessageId(0, 3))
        assert [d.seqno for d in engine.fast_forward(5)] == [5, 6]
        assert engine.next_expected == 7 and engine.missing_seqnos() == [7]
        assert not engine.fast_forward(4)  # never backwards
        assert engine.next_expected == 7
        # The skipped accept is forgotten with the numbers before it.
        assert not engine.offer_bb_data(0, MessageId(0, 3), "late", 10)
        assert engine.buffered_count == 1

    @given(
        st.permutations(list(range(1, 11))).flatmap(
            lambda order: st.lists(st.sampled_from(order), max_size=10).flatmap(
                lambda extra: st.permutations(list(order) + extra)
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_any_arrival_order_delivers_each_seqno_once_in_sequence(self, arrivals):
        engine = OrderingEngine()
        delivered = []
        for seqno in arrivals:
            run = engine.offer(rec(seqno, f"m{seqno}"))
            delivered.extend(d.seqno for d in run)
            assert engine.has_gap == bool(engine.missing_seqnos())
            assert engine.next_expected == len(delivered) + 1
        assert delivered == list(range(1, 11))
        assert engine.duplicates == len(arrivals) - 10
        assert engine.buffered_count == 0


class TestSequencerLog:
    """The seat's numbering state, shared by the simulated and real seats."""

    def test_append_numbers_and_retains_the_record(self):
        log = SequencerLog(history_size=4)
        uid = MessageId(2, 1)
        record = log.append(2, uid, "x", 10)
        assert (record.seqno, record.origin, record.payload) == (1, 2, "x")
        assert log.next_seq == 2 and log.highest_assigned == 1
        assert log.seqno_of(uid) == 1 and log.get(1) is record

    def test_bounded_history_forgets_evicted_uids(self):
        log = SequencerLog(history_size=2)
        for counter in (1, 2, 3):
            log.append(0, MessageId(0, counter), counter, 10)
        assert sorted(log.entries()) == [2, 3] and log.get(1) is None
        # An evicted uid is new again: a retry of it would take a number.
        assert log.seqno_of(MessageId(0, 1)) is None
        assert log.seqno_of(MessageId(0, 3)) == 3

    def test_adopt_and_advance_never_number_backwards(self):
        log = SequencerLog(history_size=4)
        log.adopt([rec(5, "e"), rec(3, "c")])
        assert sorted(log.entries()) == [3, 5] and log.next_seq == 6
        assert log.seqno_of(MessageId(0, 3)) == 3
        log.advance_to(4)
        assert log.next_seq == 6
        log.advance_to(9)
        assert log.append(1, MessageId(1, 1), None, 0).seqno == 9


class TestBroadcastGroup:
    def test_total_order_identical_on_all_nodes(self):
        with make_cluster(5) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            # Fire several broadcasts from different nodes at the same instant.
            for i, sender in enumerate([0, 1, 2, 3, 4, 1, 2]):
                group.broadcast_from(sender, payload=f"msg{i}", size=100)
            cluster.run()
            sequences = list(log.values())
            assert all(seq == sequences[0] for seq in sequences)
            assert len(sequences[0]) == 7
            assert [s for s, _ in sequences[0]] == list(range(1, 8))

    def test_sender_also_delivers_its_own_message(self):
        with make_cluster(3) as cluster:
            log = collect_deliveries(cluster)
            cluster.broadcast_group.broadcast_from(2, payload="hello", size=50)
            cluster.run()
            assert log[2] == [(1, "hello")]

    def test_on_delivered_callback_receives_seqno(self):
        with make_cluster(3) as cluster:
            collect_deliveries(cluster)
            seqnos = []
            cluster.broadcast_group.broadcast_from(
                1, payload="x", size=10, on_delivered=seqnos.append
            )
            cluster.run()
            assert seqnos == [1]

    def test_short_messages_use_pb_long_use_bb(self):
        with make_cluster(3) as cluster:
            collect_deliveries(cluster)
            group = cluster.broadcast_group
            group.broadcast_from(1, payload="short", size=100)
            group.broadcast_from(1, payload="long", size=5000)
            cluster.run()
            assert group.stats.pb_sends == 1
            assert group.stats.bb_sends == 1

    def test_forced_method_overrides_size_rule(self):
        with make_cluster(3, method="bb") as cluster:
            collect_deliveries(cluster)
            group = cluster.broadcast_group
            group.broadcast_from(1, payload="short", size=10)
            cluster.run()
            assert group.stats.bb_sends == 1
            assert group.stats.pb_sends == 0

    def test_pb_bandwidth_is_roughly_double_bb(self):
        """PB puts the full message on the wire twice; BB only once (plus Accept)."""
        size = 1000

        def wire_bytes(method):
            with make_cluster(4, method=method) as cluster:
                collect_deliveries(cluster)
                for _ in range(10):
                    cluster.broadcast_group.broadcast_from(1, payload="p", size=size)
                cluster.run()
                return cluster.network.stats.wire_bytes

        pb_bytes = wire_bytes("pb")
        bb_bytes = wire_bytes("bb")
        assert pb_bytes > 1.6 * bb_bytes

    def test_bb_interrupts_receivers_twice(self):
        """Each non-sequencer, non-sender machine takes 1 interrupt under PB, 2 under BB."""
        def interrupts_at_node_3(method):
            with make_cluster(4, method=method) as cluster:
                collect_deliveries(cluster)
                for _ in range(10):
                    cluster.broadcast_group.broadcast_from(1, payload="p", size=500)
                cluster.run()
                return cluster.node(3).nic.stats.interrupts

        assert interrupts_at_node_3("pb") == 10
        assert interrupts_at_node_3("bb") == 20

    def test_sequencer_can_broadcast_too(self):
        with make_cluster(3) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            assert group.sequencer_node_id == 0
            group.broadcast_from(0, payload="from-seq", size=10)
            cluster.run()
            assert log[1] == [(1, "from-seq")]
            assert log[0] == [(1, "from-seq")]

    def test_requires_broadcast_network(self):
        with make_cluster(3, network_type="switched") as cluster:
            with pytest.raises(BroadcastError):
                _ = cluster.broadcast_group

    def test_many_interleaved_broadcasts_from_processes(self):
        with make_cluster(4) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group

            def sender(node_id, count):
                proc = cluster.sim.current_process
                for i in range(count):
                    group.broadcast_from(node_id, payload=(node_id, i), size=200)
                    proc.hold(0.001)

            for node in cluster.nodes:
                node.kernel.spawn_thread(sender, node.node_id, 5)
            cluster.run()
            sequences = list(log.values())
            assert all(seq == sequences[0] for seq in sequences)
            assert len(sequences[0]) == 20


class TestOneSequencedRecord:
    """The sequencer builds one immutable record per message; everything
    downstream holds that object, never a copy."""

    def test_handler_histories_and_sequencer_share_the_record(self):
        with make_cluster(4) as cluster:
            group = cluster.broadcast_group
            seen = {node.node_id: [] for node in cluster.nodes}
            for nid, log in seen.items():
                group.set_delivery_handler(nid, log.append)
            group.broadcast_from(2, payload=("p", 1), size=40)
            cluster.run()
            record = group.sequencer.log.entries()[1]
            assert (record.seqno, record.origin, record.payload) == (1, 2, ("p", 1))
            for nid, member in group.members.items():
                assert len(seen[nid]) == 1 and seen[nid][0] is record
                assert member.lookup_entry(1) is record
            for name in ("seqno", "origin", "uid", "payload", "size"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 0)

    @staticmethod
    def _lose_first_data_at(cluster, victim):
        """Node ``victim`` misses the first ``grp.data``; returns the kinds
        of the messages that do reach it."""
        data_kind = cluster.broadcast_group.wire_kind(KIND_DATA)
        arrived = []

        def lose_first_data(packet):
            kind = packet.message.kind
            lost = kind == data_kind and data_kind not in arrived
            arrived.append(kind)
            return lost

        cluster.node(victim).nic.drop_filter = lose_first_data
        return arrived

    def test_lost_data_comes_back_from_the_sequencer_as_the_same_record(self):
        with make_cluster(4) as cluster:
            group = cluster.broadcast_group
            seen = []
            group.set_delivery_handler(3, seen.append)
            arrived = self._lose_first_data_at(cluster, 3)
            group.broadcast_from(1, payload="lost", size=40)
            group.broadcast_from(1, payload="reveals-the-gap", size=40)
            cluster.run()
            assert group.wire_kind(KIND_RETRANSMIT) in arrived
            assert group.sequencer.retransmissions == 1
            assert group.stats.peer_retransmissions == 0
            assert [d.payload for d in seen] == ["lost", "reveals-the-gap"]
            assert seen[0] is group.sequencer.log.entries()[1]

    def test_lost_data_comes_back_from_the_designated_peer_as_the_same_record(self):
        with make_cluster(4) as cluster:
            group = cluster.broadcast_group
            seen = []
            group.set_delivery_handler(3, seen.append)
            arrived = self._lose_first_data_at(cluster, 3)

            def scenario():
                group.broadcast_from(1, payload="lost", size=40)
                group.broadcast_from(1, payload="reveals-the-gap", size=40)
                cluster.sim.current_process.hold(0.001)
                # Both are sequenced; now the bounded window moves past them.
                group.sequencer.log._history.clear()

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            assert group.wire_kind(KIND_RETRANSMIT) in arrived
            assert group.sequencer.retransmissions == 0
            assert group.stats.peer_retransmissions == 1
            assert [d.payload for d in seen] == ["lost", "reveals-the-gap"]
            assert all(seen[0] is group.member(nid).lookup_entry(1) for nid in range(4))

    @pytest.mark.xfail(
        strict=True,
        reason="a send from the sequencer's own node is delivered inside _transmit's "
        "seat-local branch, which still arms a retry timer for it (ROADMAP, smaller threads); "
        "the fix changes sim.events_per_op and the event count of 100 of the 171 pinned "
        "cells, in every family but adaptive and rebalance; only transactions/cross-shard "
        "moves beyond its event count (its throughput)",
    )
    def test_send_from_the_sequencer_node_leaves_no_retry_timer(self):
        with make_cluster(4) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            assert group.sequencer_node_id == 0
            group.broadcast_from(0, payload="x", size=10)
            assert log[0] == [(1, "x")]  # delivered before broadcast_from returned
            assert cluster.node(0).kernel.active_timers == 0
            cluster.run()
            # ... and the idle cluster winds down with the last delivery, not
            # with a retry_timeout that finds nothing pending.
            assert cluster.sim.now < group.retry_timeout


class TestLossRecovery:
    def test_total_order_survives_packet_loss(self):
        with make_cluster(4, loss_rate=0.15, seed=9) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            for i in range(30):
                group.broadcast_from(i % 4, payload=i, size=300)
            cluster.run()
            sequences = list(log.values())
            # Every live node must deliver the same 30 messages in the same order.
            assert all(seq == sequences[0] for seq in sequences)
            assert len(sequences[0]) == 30
            payloads = [p for _, p in sequences[0]]
            assert sorted(payloads) == list(range(30))

    def test_loss_recovery_uses_retransmissions(self):
        with make_cluster(4, loss_rate=0.25, seed=21) as cluster:
            collect_deliveries(cluster)
            group = cluster.broadcast_group
            for i in range(20):
                group.broadcast_from(1, payload=i, size=300)
            cluster.run()
            assert group.stats.retransmit_requests > 0
            assert group.delivered_counts() == {0: 20, 1: 20, 2: 20, 3: 20}


class TestFailureInjection:
    """A crashed sequencer and loss_rate combined: the worst-case recovery path."""

    def test_a_group_builds_a_sequencer_only_for_a_seat_it_hosts(self):
        with make_cluster(4) as cluster:
            host = SimpleNamespace(network=cluster.network, cost_model=cluster.cost_model,
                                   nodes=[cluster.node(1)])
            group = BroadcastGroup(host, group_id=5, sequencer_node_id=0)
            assert list(group.members) == [1] and group.sequencer is None
            election.install(group, 1, 7, group.epoch + 1)
            seat = group.sequencer
            assert seat.node is cluster.node(1) and seat.log.next_seq == 7
            member = group.member(1)
            member.election.on_coordinator(coordinator(group, 1, 9, group.epoch))
            assert group.sequencer is seat and seat.log.next_seq == 9
            # A remote winner is recorded, not built; the old seat retires.
            member.election.on_coordinator(coordinator(group, 2, 11, group.epoch))
            assert group.sequencer_node_id == 2 and group.sequencer is None

    def test_a_member_takes_the_seats_numbers_only_from_the_seat(self):
        with make_cluster(4) as cluster:
            host = SimpleNamespace(network=cluster.network, cost_model=cluster.cost_model,
                                   nodes=[cluster.node(1)])
            group = BroadcastGroup(host, group_id=5, sequencer_node_id=0)
            member = group.member(1)

            def carrying(src, seqno, kind=KIND_DATA, **headers):
                record = DeliveredMessage(seqno, 3, MessageId(3, seqno), "x", 10)
                return Message(src=src, dst=None, kind=group.wire_kind(kind), payload=record,
                               size=10, headers=headers)

            # Node 2 is not the seat this member follows: its number is
            # dropped, and an election is called to settle the seat.
            member._on_data(carrying(2, 1))
            assert member.engine.next_expected == 1 and group.stats.elections == 1
            member._on_data(carrying(0, 1))
            member._on_data(carrying(2, 2, KIND_RETRANSMIT))  # a peer's history
            assert member.engine.next_expected == 3
            # A later seat's announcement wins over an older one's.
            election.install(group, 2, 4, group.epoch + 1)
            assert (group.epoch, group.seat_start) == (1, 4)
            member.election.on_coordinator(coordinator(group, 0, 4, 0))
            assert group.sequencer_node_id == 2
            # The old seat's numbers below the new seat's first one are history.
            member._on_data(carrying(0, 3))
            member._on_data(carrying(0, 4))
            assert member.engine.next_expected == 4 and member.engine.buffered_count == 0

    def test_total_order_survives_crash_under_packet_loss(self):
        """Sequencer crash and packet loss at the same time: survivors still
        deliver an identical, gap-free sequence."""
        with make_cluster(5, loss_rate=0.1, seed=17) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group

            def scenario():
                proc = cluster.sim.current_process
                for i in range(8):
                    group.broadcast_from((i % 4) + 1, payload=("pre", i), size=200)
                proc.hold(0.5)
                crash_sequencer(cluster, group)
                for i in range(8):
                    group.broadcast_from((i % 4) + 1, payload=("post", i), size=200)
                proc.hold(4.0)

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            assert group.sequencer_node_id != 0
            surviving = [nid for nid in log if nid != 0]
            reference = log[surviving[0]]
            for nid in surviving:
                assert log[nid] == reference
            payloads = [p for _, p in reference]
            assert sorted(p for p in payloads if p[0] == "pre") == \
                [("pre", i) for i in range(8)]
            assert sorted(p for p in payloads if p[0] == "post") == \
                [("post", i) for i in range(8)]
            # The delivered seqnos are gap-free at every survivor.
            seqnos = [s for s, _ in reference]
            assert seqnos == list(range(1, len(seqnos) + 1))

    def test_history_buffer_serves_lost_messages(self):
        """Under loss, lagging members recover older messages point-to-point
        from the sequencer's bounded history buffer.

        Broadcasting from the sequencer's own node removes the sender-retry
        healing path (its copy is delivered by local loop-back), so members
        that lose the data broadcast can only catch up through gap
        retransmit requests answered from the history buffer.
        """
        with make_cluster(4, loss_rate=0.3, seed=29) as cluster:
            collect_deliveries(cluster)
            group = cluster.broadcast_group
            assert group.sequencer_node_id == 0
            for i in range(25):
                group.broadcast_from(0, payload=i, size=400)
            cluster.run()
            assert group.delivered_counts() == {0: 25, 1: 25, 2: 25, 3: 25}
            # Recovery went through the history buffer, not just luck.
            assert group.sequencer.retransmissions > 0
            history = group.sequencer.log.entries()
            assert history, "sequencer retained no history"
            assert max(history) == 25

    def test_new_sequencer_continues_numbering_without_reuse(self):
        """After a crash election, the new sequencer must not hand out
        sequence numbers the old one already assigned."""
        with make_cluster(4) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group

            def scenario():
                proc = cluster.sim.current_process
                for i in range(6):
                    group.broadcast_from(1, payload=("old", i), size=50)
                proc.hold(0.3)
                crash_sequencer(cluster, group)
                group.broadcast_from(2, payload=("new", 0), size=50)
                proc.hold(2.0)

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            surviving = [nid for nid in log if nid != 0]
            for nid in surviving:
                seqnos = [s for s, _ in log[nid]]
                assert len(seqnos) == len(set(seqnos)), "sequence number reused"
                assert log[nid][-1][1] == ("new", 0)
                assert log[nid][-1][0] > 6


class TestCrossMemberRetransmission:
    """Any member can answer gap requests, not just the sequencer."""

    def test_message_the_election_winner_never_saw_is_recovered(self):
        """Crash + targeted loss: a message only one surviving member holds.

        BB data from node 2 is dropped at nodes 1 and 3, so only the
        sequencer (node 0) and the sender hold it; everyone saw the Accept,
        so everyone knows sequence number 4 exists.  Node 0 then crashes
        before answering any gap request.  The election winner is node 1 —
        best-informed by seqno, yet it never saw the data.  Only node 2 can
        serve it, which requires the broadcast gap-request fallback.
        """
        cost_model = CostModel().with_overrides(broadcast={"method": "bb"})
        cluster = Cluster(ClusterConfig(num_nodes=4, seed=11,
                                        cost_model=cost_model))
        with cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            bb_kind = group.wire_kind(KIND_BB_DATA)

            def drop_bb_from_2(packet):
                return packet.message.kind == bb_kind and packet.message.src == 2

            def scenario():
                proc = cluster.sim.current_process
                for i in range(3):
                    group.broadcast_from(3, payload=("pre", i), size=100)
                proc.hold(0.1)
                for nid in (1, 3):
                    cluster.node(nid).nic.drop_filter = drop_bb_from_2
                group.broadcast_from(2, payload=("lost", 4), size=100)
                proc.hold(0.002)  # Accept is out; gap requests still pending
                crash_sequencer(cluster, group)
                for nid in (1, 3):
                    cluster.node(nid).nic.drop_filter = None
                # An unsequenceable send forces retries and an election.
                group.broadcast_from(3, payload=("post", 5), size=100)
                proc.hold(3.0)

            cluster.node(3).kernel.spawn_thread(scenario)
            cluster.run()
            # Node 1 won despite never receiving the data for seqno 4.
            assert group.sequencer_node_id == 1
            assert group.stats.peer_retransmissions > 0
            reference = [(1, ("pre", 0)), (2, ("pre", 1)), (3, ("pre", 2)),
                         (4, ("lost", 4)), (5, ("post", 5))]
            for nid in (1, 2, 3):
                assert log[nid] == reference

    def test_survivors_converge_under_crash_and_heavy_loss(self):
        """Randomized stress: sequencer crash plus 20% packet loss still
        yields an identical, gap-free sequence at every survivor."""
        with make_cluster(5, loss_rate=0.2, seed=33) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group

            def scenario():
                proc = cluster.sim.current_process
                for i in range(10):
                    group.broadcast_from((i % 4) + 1, payload=("pre", i), size=250)
                proc.hold(0.4)
                crash_sequencer(cluster, group)
                for i in range(10):
                    group.broadcast_from((i % 4) + 1, payload=("post", i), size=250)
                proc.hold(6.0)

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            surviving = [nid for nid in log if nid != 0]
            reference = log[surviving[0]]
            for nid in surviving:
                assert log[nid] == reference
            payloads = [p for _, p in reference]
            assert sorted(p for p in payloads if p[0] == "pre") == \
                [("pre", i) for i in range(10)]
            assert sorted(p for p in payloads if p[0] == "post") == \
                [("post", i) for i in range(10)]
            seqnos = [s for s, _ in reference]
            assert seqnos == list(range(1, len(seqnos) + 1))

    def test_gap_requests_fall_back_to_broadcast_after_unicast_fails(self):
        """The first gap request is a unicast to the sequencer; once it goes
        unanswered the member broadcasts, so peers can serve the message."""
        cost_model = CostModel().with_overrides(broadcast={"method": "bb"})
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=5,
                                        cost_model=cost_model))
        with cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            bb_kind = group.wire_kind(KIND_BB_DATA)
            retx_kind = group.wire_kind(KIND_RETRANSMIT)

            def drop_bb_from_1(packet):
                return packet.message.kind == bb_kind and packet.message.src == 1

            # Node 0 (the sequencer) refuses to serve retransmissions, as if
            # its history were lost; node 2 must recover through a peer.
            def drop_retx(packet):
                return packet.message.kind == retx_kind and packet.message.src == 0

            def scenario():
                proc = cluster.sim.current_process
                cluster.node(2).nic.drop_filter = drop_bb_from_1
                group.broadcast_from(1, payload="only-via-peer", size=100)
                proc.hold(0.001)
                cluster.node(2).nic.drop_filter = drop_retx
                proc.hold(2.0)

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            assert group.stats.peer_retransmissions > 0
            assert log[2] == [(1, "only-via-peer")]


class TestSequencerServiceModel:
    """The opt-in queueing model of the sequencer's ordering capacity."""

    def test_sequencing_cost_paces_ordered_broadcasts(self):
        cost_model = CostModel().with_overrides(cpu={"sequencing_cost": 0.001})
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=4,
                                        cost_model=cost_model))
        with cluster:
            times = []
            group = cluster.broadcast_group
            group.set_delivery_handler(
                2, lambda d: times.append(cluster.sim.now))
            for i in range(5):
                group.broadcast_from(1, payload=i, size=50)
            cluster.run()
            assert len(times) == 5
            gaps = [b - a for a, b in zip(times, times[1:])]
            # One message per service interval, not an instantaneous burst.
            assert all(gap >= 0.0009 for gap in gaps), gaps
            assert group.sequencer.max_queue_depth >= 2

    def test_default_cost_model_keeps_sequencing_instantaneous(self):
        with make_cluster(3, seed=4) as cluster:
            collect_deliveries(cluster)
            group = cluster.broadcast_group
            for i in range(5):
                group.broadcast_from(1, payload=i, size=50)
            cluster.run()
            # No service queue ever forms in the calibrated default regime.
            assert group.sequencer.max_queue_depth == 0
            assert group.delivered_counts()[2] == 5


class TestSequencerElection:
    def test_new_sequencer_elected_after_crash(self):
        with make_cluster(4) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group

            def scenario():
                proc = cluster.sim.current_process
                group.broadcast_from(1, payload="before", size=10)
                proc.hold(0.2)
                crash_sequencer(cluster, group)
                # This send has no sequencer to order it; the retry path
                # must elect a new sequencer and then deliver it.
                group.broadcast_from(1, payload="after", size=10)
                proc.hold(2.0)

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            assert group.sequencer_node_id != 0
            surviving = [nid for nid in log if nid != 0]
            for nid in surviving:
                payloads = [p for _, p in log[nid]]
                assert payloads == ["before", "after"]

    def test_order_preserved_across_election(self):
        with make_cluster(5) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group

            def scenario():
                proc = cluster.sim.current_process
                for i in range(5):
                    group.broadcast_from(2, payload=("pre", i), size=10)
                proc.hold(0.2)
                crash_sequencer(cluster, group)
                for i in range(5):
                    group.broadcast_from(3, payload=("post", i), size=10)
                proc.hold(2.0)

            cluster.node(2).kernel.spawn_thread(scenario)
            cluster.run()
            surviving = [nid for nid in log if nid != 0]
            reference = log[surviving[0]]
            for nid in surviving:
                assert log[nid] == reference
            labels = [p[0] for _, p in reference]
            assert labels == ["pre"] * 5 + ["post"] * 5

    @pytest.mark.parametrize("down_for", [0.25, 2.0], ids=["inside-the-round", "past-it"])
    def test_a_round_dies_with_its_members_crash(self, down_for):
        with make_cluster(4) as cluster:
            group = cluster.broadcast_group
            seat, timeout = group.sequencer, group.params.election_timeout
            member = group.member(0)
            node = cluster.node(0)
            # Node 0 calls a round and every member joins it; node 0 holds
            # the lowest id, so every member's round elects it.
            member.election.start()
            cluster.sim.schedule(timeout / 2, node.crash)
            cluster.sim.schedule(timeout / 2 + down_for * timeout, node.recover)
            cluster.run()
            assert member.election.timer is None and member.election.votes == {}
            # The winner's round died with it: no seat was installed.
            assert (group.sequencer_node_id, group.epoch, group.seat_start) == (0, 0, 1)
            assert group.sequencer is seat and group.stats.elections == 1
            assert all(m.election.timer is None for m in group.members.values())

    @pytest.mark.parametrize("trust_old", [True, False], ids=["drain", "rejoin"])
    def test_a_handoff_numbers_on_from_the_old_seat_or_from_live_evidence(self, trust_old):
        cost_model = CostModel().with_overrides(cpu={"sequencing_cost": 0.01})
        with Cluster(ClusterConfig(num_nodes=4, seed=3, cost_model=cost_model)) as cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            seen = {}

            def scenario():
                proc = cluster.sim.current_process
                for i in range(5):
                    group.broadcast_from(1 + i % 3, payload=("before", i), size=10)
                proc.hold(1.0)
                if not trust_old:
                    # The seat numbers one more broadcast and crashes with it
                    # still in its service queue: no live member saw number 6.
                    group.broadcast_from(1, payload=("lost", 0), size=10)
                    proc.hold(0.005)
                    cluster.node(0).crash()
                seen["old_next_seq"] = group.sequencer.log.next_seq
                election.handoff(group, 2, trust_old=trust_old)
                seen["seat_start"] = group.seat_start
                for i in range(5):
                    group.broadcast_from(1 + i % 3, payload=("after", i), size=10)
                proc.hold(4.0)

            cluster.node(3).kernel.spawn_thread(scenario)
            cluster.run(until=20.0)  # a numbering gap would retry forever
            assert group.sequencer_node_id == 2 and group.epoch == 1
            if trust_old:
                # A drain continues the old seat's numbers.
                assert seen == {"old_next_seq": 6, "seat_start": 6}
            else:
                # A rejoin numbers after the live, synced members' evidence.
                assert seen == {"old_next_seq": 7, "seat_start": 6}
            live = [nid for nid in log if cluster.node(nid).alive]
            assert len(live) == (4 if trust_old else 3)
            reference = log[live[0]]
            assert [seqno for seqno, _ in reference] == list(range(1, len(reference) + 1))
            assert len({payload for _, payload in reference}) == len(reference)
            assert len(reference) == (10 if trust_old else 11)
            assert all(log[nid] == reference for nid in live)


class TestRejoinedMembersAndGapRecovery:
    """A recovered member's history died with it: until a higher layer
    completes its catch-up it must neither be designated to answer gap
    requests nor answer them — a zombie designee would stall every
    requester for a salvo and could only reply with nothing."""

    def test_wiped_member_is_never_the_designated_gap_responder(self):
        with make_cluster(4, seed=7) as cluster:
            collect_deliveries(cluster)
            group = cluster.broadcast_group
            for i in range(5):
                group.broadcast_from(1, payload=i, size=100)
            cluster.run()
            assert group.stats.deliveries == 5 * 4
            cluster.node(3).crash()
            cluster.node(3).recover()
            member = group.member(3)
            assert member.synced is False
            assert member.lookup_entry(3) is None  # history wiped
            # ... but not the count of what was delivered: it stays monotone.
            assert group.stats.deliveries == 5 * 4 and member.deliveries == 5
            # Whatever the seqno or retry salvo, the rotation must never
            # land on the zombie — and even if a request reached it, the
            # answer path bows out.
            for seqno in range(1, 8):
                for salvo in range(6):
                    assert not member._gap_responder(seqno, salvo)
            before = group.stats.peer_retransmissions
            member._answer_gap_request(requester=1, seqno=3)
            assert group.stats.peer_retransmissions == before

    def test_loss_recovery_converges_around_a_rejoining_member(self):
        """The end-to-end regression: with a wiped recovered member in the
        group, a peer that lost a message (and gets no help from the
        sequencer) still recovers promptly through a *synced* peer."""
        cost_model = CostModel().with_overrides(broadcast={"method": "bb"})
        cluster = Cluster(ClusterConfig(num_nodes=4, seed=5,
                                        cost_model=cost_model))
        with cluster:
            log = collect_deliveries(cluster)
            group = cluster.broadcast_group
            bb_kind = group.wire_kind(KIND_BB_DATA)
            retx_kind = group.wire_kind(KIND_RETRANSMIT)

            def drop_bb_from_1(packet):
                return (packet.message.kind == bb_kind
                        and packet.message.src == 1)

            # The sequencer (node 0) refuses to serve retransmissions, as
            # if its history were lost; node 2 must recover via a peer —
            # and node 3, freshly recovered with wiped history, must not
            # be the one the rotation waits on.
            def drop_retx(packet):
                return (packet.message.kind == retx_kind
                        and packet.message.src == 0)

            def scenario():
                proc = cluster.sim.current_process
                for i in range(5):
                    group.broadcast_from(1, payload=("pre", i), size=100)
                proc.hold(0.1)
                cluster.node(3).crash()
                cluster.node(3).recover()
                assert group.member(3).synced is False
                cluster.node(2).nic.drop_filter = drop_bb_from_1
                group.broadcast_from(1, payload="only-via-peer", size=100)
                proc.hold(0.001)
                cluster.node(2).nic.drop_filter = drop_retx
                proc.hold(2.0)

            cluster.node(1).kernel.spawn_thread(scenario)
            cluster.run()
            assert group.stats.peer_retransmissions > 0
            assert log[2][-1] == (6, "only-via-peer")
            assert len(log[2]) == 6
            # The zombie stayed out of it: still unsynced, and its wiped
            # engine (expecting seqno 1 again) delivered nothing new.
            assert group.member(3).synced is False
            assert log[3] == log[2][:5]
