"""Tests for the simulated interconnects and NICs."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel, NetworkParams
from repro.errors import NetworkError, RoutingError
from repro.sim import Simulator


def make_cluster(n=3, network_type="ethernet", **net_overrides):
    cost_model = CostModel().with_overrides(network=net_overrides) if net_overrides else CostModel()
    config = ClusterConfig(num_nodes=n, cost_model=cost_model, seed=5)
    return Cluster(config, network_type=network_type)


class TestEthernetNetwork:
    def test_unicast_delivery(self):
        with make_cluster(3) as cluster:
            received = []
            cluster.node(1).register_handler("test", lambda m: received.append(m.payload))
            cluster.node(0).send(cluster.node(0).make_message(1, "test", payload="hi"))
            cluster.run()
            assert received == ["hi"]

    def test_broadcast_reaches_all_but_sender(self):
        with make_cluster(4) as cluster:
            received = []
            for node in cluster.nodes:
                node.register_handler(
                    "test", lambda m, nid=node.node_id: received.append(nid)
                )
            cluster.node(2).send(cluster.node(2).make_message(None, "test", payload="x"))
            cluster.run()
            assert sorted(received) == [0, 1, 3]

    def test_delivery_takes_latency_plus_transmit_time(self):
        with make_cluster(2) as cluster:
            params = cluster.cost_model.network
            arrival = []
            cluster.node(1).register_handler("t", lambda m: arrival.append(cluster.sim.now))
            msg = cluster.node(0).make_message(1, "t", payload=None, size=1000)
            cluster.node(0).send(msg)
            cluster.run()
            expected = params.transmit_time(1000) + params.latency
            assert arrival[0] == pytest.approx(expected)

    def test_shared_medium_serialises_transmissions(self):
        with make_cluster(3) as cluster:
            params = cluster.cost_model.network
            arrivals = []
            cluster.node(2).register_handler("t", lambda m: arrivals.append(cluster.sim.now))
            cluster.node(0).send(cluster.node(0).make_message(2, "t", size=1000))
            cluster.node(1).send(cluster.node(1).make_message(2, "t", size=1000))
            cluster.run()
            t_packet = params.transmit_time(1000)
            assert arrivals[0] == pytest.approx(t_packet + params.latency)
            assert arrivals[1] == pytest.approx(2 * t_packet + params.latency)

    def test_large_message_fragmented(self):
        with make_cluster(2) as cluster:
            received = []
            cluster.node(1).register_handler("t", lambda m: received.append(m.size))
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=4000))
            cluster.run()
            assert received == [4000]
            assert cluster.network.stats.packets_sent == 3
            assert cluster.node(1).nic.stats.interrupts == 3

    def test_unknown_destination_raises(self):
        with make_cluster(2) as cluster:
            with pytest.raises(RoutingError):
                cluster.node(0).send(cluster.node(0).make_message(9, "t"))

    def test_packet_loss_drops_messages(self):
        with make_cluster(2, loss_rate=0.5) as cluster:
            received = []
            cluster.node(1).register_handler("t", lambda m: received.append(1))
            for _ in range(200):
                cluster.node(0).send(cluster.node(0).make_message(1, "t", size=10))
            cluster.run()
            assert 0 < len(received) < 200
            assert cluster.network.stats.packets_dropped > 0

    def test_crashed_node_discards_traffic(self):
        with make_cluster(2) as cluster:
            received = []
            cluster.node(1).register_handler("t", lambda m: received.append(1))
            cluster.node(1).crash()
            cluster.node(0).send(cluster.node(0).make_message(1, "t"))
            cluster.run()
            assert received == []
            assert cluster.node(1).nic.stats.packets_discarded == 1

    def test_utilization_is_transmit_time_over_elapsed_time(self):
        with make_cluster(2) as cluster:
            t_packet = cluster.cost_model.network.transmit_time(1000)
            cluster.node(1).register_handler("t", lambda m: None)
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=1000))
            cluster.sim.schedule(4 * t_packet, lambda: None)  # extend the run to 4 packet times
            cluster.run()
            assert cluster.network.utilization() == pytest.approx(0.25)

    def test_utilization_counts_only_what_has_been_transmitted_so_far(self):
        with make_cluster(2) as cluster:
            t_packet = cluster.cost_model.network.transmit_time(1000)
            cluster.node(1).register_handler("t", lambda m: None)
            assert cluster.network.utilization() == 0.0  # no time has passed
            for _ in range(3):  # handed over at 0: the medium is busy until 3 packet times
                cluster.node(0).send(cluster.node(0).make_message(1, "t", size=1000))
            cluster.run(until=1.5 * t_packet)
            assert cluster.network.utilization() == pytest.approx(1.0)
            cluster.sim.schedule_at(6 * t_packet, lambda: None)
            cluster.run()
            assert cluster.network.utilization() == pytest.approx(0.5)

    def test_stats_by_kind(self):
        with make_cluster(2) as cluster:
            cluster.node(1).register_handler("a", lambda m: None)
            cluster.node(1).register_handler("b", lambda m: None)
            cluster.node(0).send(cluster.node(0).make_message(1, "a", size=10))
            cluster.node(0).send(cluster.node(0).make_message(1, "a", size=10))
            cluster.node(0).send(cluster.node(0).make_message(1, "b", size=10))
            cluster.run()
            assert cluster.network.stats.by_kind == {"a": 2, "b": 1}


class TestSwitchedNetwork:
    def test_no_hardware_broadcast(self):
        with make_cluster(3, network_type="switched") as cluster:
            with pytest.raises(NetworkError):
                cluster.node(0).send(cluster.node(0).make_message(None, "t"))

    def test_unicast_works(self):
        with make_cluster(3, network_type="switched") as cluster:
            received = []
            cluster.node(2).register_handler("t", lambda m: received.append(m.payload))
            cluster.node(0).send(cluster.node(0).make_message(2, "t", payload=42))
            cluster.run()
            assert received == [42]

    def test_different_sources_do_not_contend(self):
        with make_cluster(3, network_type="switched") as cluster:
            params = cluster.cost_model.network
            arrivals = []
            cluster.node(2).register_handler("t", lambda m: arrivals.append(cluster.sim.now))
            cluster.node(0).send(cluster.node(0).make_message(2, "t", size=1000))
            cluster.node(1).send(cluster.node(1).make_message(2, "t", size=1000))
            cluster.run()
            expected = params.transmit_time(1000) + params.latency
            assert arrivals == [pytest.approx(expected), pytest.approx(expected)]

    def test_one_source_serialises_its_own_transmissions(self):
        with make_cluster(3, network_type="switched") as cluster:
            params = cluster.cost_model.network
            arrivals = []
            for dst in (1, 2):
                cluster.node(dst).register_handler("t", lambda m: arrivals.append(cluster.sim.now))
                cluster.node(0).send(cluster.node(0).make_message(dst, "t", size=1000))
            cluster.run()
            t_packet = params.transmit_time(1000)
            assert arrivals[0] == pytest.approx(t_packet + params.latency)
            assert arrivals[1] == pytest.approx(2 * t_packet + params.latency)

    def test_link_utilization_is_per_source(self):
        with make_cluster(3, network_type="switched") as cluster:
            t_packet = cluster.cost_model.network.transmit_time(1000)
            cluster.node(2).register_handler("t", lambda m: None)
            cluster.node(0).send(cluster.node(0).make_message(2, "t", size=1000))
            cluster.node(0).send(cluster.node(0).make_message(2, "t", size=1000))
            cluster.node(1).send(cluster.node(1).make_message(2, "t", size=1000))
            cluster.sim.schedule(4 * t_packet, lambda: None)
            cluster.run()
            utilization = [cluster.network.link_utilization(node_id) for node_id in range(3)]
            assert utilization == [pytest.approx(0.5), pytest.approx(0.25), 0.0]

    def test_same_instant_on_two_links_arrives_in_hand_over_order(self):
        with make_cluster(3, network_type="switched") as cluster:
            arrivals = []
            cluster.node(0).register_handler("t", lambda m: arrivals.append(m.payload))
            for src in (2, 1, 2, 1):
                node = cluster.node(src)
                node.send(node.make_message(0, "t", payload=src, size=700))
            cluster.run()
            assert arrivals == [2, 1, 2, 1]


class TestNodeOverhead:
    def test_interrupt_cost_charged_to_receiver(self):
        with make_cluster(2) as cluster:
            cpu = cluster.cost_model.cpu
            cluster.node(1).register_handler("t", lambda m: None)
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=10))
            cluster.run()
            expected = cpu.interrupt_cost + cpu.protocol_cost
            assert cluster.node(1).stats.overhead_time == pytest.approx(expected)
            assert cluster.node(1).pending_overhead == pytest.approx(expected)

    def test_drain_overhead_clears_pending(self):
        with make_cluster(2) as cluster:
            cluster.node(1).register_handler("t", lambda m: None)
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=10))
            cluster.run()
            drained = cluster.node(1).drain_overhead()
            assert drained > 0
            assert cluster.node(1).pending_overhead == 0.0

    def test_duplicate_handler_registration_rejected(self):
        with make_cluster(2) as cluster:
            cluster.node(0).register_handler("t", lambda m: None)
            with pytest.raises(NetworkError):
                cluster.node(0).register_handler("t", lambda m: None)

    def test_unhandled_kind_raises(self):
        with make_cluster(2) as cluster:
            cluster.node(0).send(cluster.node(0).make_message(1, "nobody"))
            with pytest.raises(NetworkError):
                cluster.run()


class TestNicAccounting:
    """The NIC's two charges, exactly: one interrupt per packet, then one
    protocol charge per complete message, as one float sum per node."""

    #: Costs whose sum depends on the order of its addends:
    #: 0.1 + 0.1 + 0.1 + 0.7 == 1.0, but 0.7 first gives 0.9999999999999999.
    INTERRUPT, PROTOCOL = 0.1, 0.7

    def cluster(self):
        cost_model = CostModel().with_overrides(
            cpu={"interrupt_cost": self.INTERRUPT, "protocol_cost": self.PROTOCOL})
        return Cluster(ClusterConfig(num_nodes=2, cost_model=cost_model, seed=5))

    def test_three_packets_three_interrupts_then_one_protocol_charge(self):
        with self.cluster() as cluster:
            receiver = cluster.node(1)
            seen = []
            receiver.register_handler("t", lambda m: seen.append(
                (receiver.nic.stats.interrupts, receiver.stats.overhead_time)))
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=4000))
            cluster.run()
            expected = 0.0
            for cost in (self.INTERRUPT, self.INTERRUPT, self.INTERRUPT, self.PROTOCOL):
                expected += cost
            assert cluster.network.stats.packets_sent == 3
            assert seen == [(3, expected)]  # both charges land before the handler
            assert receiver.stats.overhead_time == expected
            assert receiver.pending_overhead == expected
            assert receiver.nic.stats.packets_discarded == 0

    def test_drop_filter_discards_and_charges_nothing(self):
        with self.cluster() as cluster:
            receiver = cluster.node(1)
            received = []
            receiver.register_handler("t", received.append)
            receiver.nic.drop_filter = lambda packet: True
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=4000))
            cluster.run()
            assert received == []
            assert receiver.nic.stats.packets_discarded == 3
            assert receiver.nic.stats.interrupts == 0
            assert receiver.stats.overhead_time == 0.0
            assert receiver.pending_overhead == 0.0

    def test_crashed_receiver_discards_and_charges_nothing(self):
        with self.cluster() as cluster:
            receiver = cluster.node(1)
            received = []
            receiver.register_handler("t", received.append)
            receiver.crash()
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=10))
            cluster.run()
            assert received == []
            assert receiver.nic.stats.packets_discarded == 1
            assert receiver.nic.stats.interrupts == 0
            assert receiver.stats.overhead_time == 0.0
            assert receiver.pending_overhead == 0.0


# ---------------------------------------------------------------------- #
# The wire as a timeline, against the pipeline it replaced
# ---------------------------------------------------------------------- #


class ReferencePipeline:
    """The oracle: the wire as it was, three events a packet and a FIFO per transmitter.

    A packet waits for its transmitter, is *granted* it (a zero-delay event),
    holds it for its transmit time (*done*: counted, next in line granted,
    ``on_sent`` called) and *arrives* one latency later.  The timeline in
    ``network.py`` must put every packet at the same float times.
    """

    def __init__(self, sim, params, node_ids, shared):
        self.sim, self.params, self.node_ids, self.shared = sim, params, node_ids, shared
        self.granted, self.waiting, self.busy_time = set(), {}, {}
        self.arrivals, self.sent = [], []
        self.packets_sent = self.wire_bytes = 0

    def send(self, src, dst, tag, size, notify):
        transmitter = None if self.shared else src
        count = self.params.packets_for(size)
        for index in range(count):
            payload = max(1, min(self.params.packet_size, size - index * self.params.packet_size))
            packet = (src, dst, tag, index, payload, notify and index == count - 1)
            if transmitter in self.granted:
                self.waiting.setdefault(transmitter, deque()).append(packet)
            else:
                self._grant(transmitter, packet)

    def _grant(self, transmitter, packet):
        self.granted.add(transmitter)
        self.sim.schedule(0.0, self._granted, transmitter, packet)

    def _granted(self, transmitter, packet):
        duration = self.params.transmit_time(packet[4])
        self.busy_time[transmitter] = self.busy_time.get(transmitter, 0.0) + duration
        self.sim.schedule(duration, self._done, transmitter, packet)

    def _done(self, transmitter, packet):
        self.granted.remove(transmitter)
        if self.waiting.get(transmitter):
            self._grant(transmitter, self.waiting[transmitter].popleft())
        src, dst, tag, index, payload, notify = packet
        self.packets_sent += 1
        self.wire_bytes += payload + self.params.packet_overhead_bytes
        for node_id in [n for n in self.node_ids if n != src] if dst is None else [dst]:
            self.sim.schedule(self.params.latency, self._arrive, node_id, tag, index)
        if notify:
            self.sent.append((self.sim.now, tag))

    def _arrive(self, node_id, tag, index):
        self.arrivals.append((self.sim.now, node_id, tag, index))


_NODES = 5
_PACKET = NetworkParams().packet_size
#: Hand-over instants: a few shared ones (bursts, ties) and arbitrary floats.
_instants = st.one_of(
    st.sampled_from([0.0, 0.0, 0.001, 0.0025]),
    st.floats(min_value=0, max_value=0.01, allow_nan=False),
)
#: ``(instant, source, destination offset, broadcast?, size, wants on_sent)``.
_hand_overs = st.lists(
    st.tuples(
        _instants,
        st.integers(0, 3),
        st.integers(1, _NODES - 1),
        st.booleans(),
        st.integers(1, 3 * _PACKET),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def _drive(sim, hand_overs, senders, broadcasts, send):
    """Schedule every hand-over on ``sim``; tags are positions in hand-over order."""
    ordered = sorted(hand_overs, key=lambda hand_over: hand_over[0])  # stable: ties keep list order
    for tag, (instant, src, offset, broadcast, size, notify) in enumerate(ordered):
        src %= senders
        dst = None if broadcast and broadcasts else (src + offset) % _NODES
        sim.schedule(instant, send, src, dst, tag, size, notify)


class TestTimelineAgainstThePipeline:
    @settings(max_examples=120, deadline=None)
    @given(_hand_overs, st.integers(1, 4), st.sampled_from(["ethernet", "switched"]))
    def test_every_packet_arrives_at_the_same_float_time(self, hand_overs, senders, network_type):
        shared = network_type == "ethernet"
        with Simulator() as reference_sim:
            reference = ReferencePipeline(reference_sim, NetworkParams(), range(_NODES), shared)
            _drive(reference_sim, hand_overs, senders, shared, reference.send)
            reference_end = reference_sim.run()
        arrivals, sent = [], []
        with make_cluster(_NODES, network_type=network_type) as cluster:
            sim, network = cluster.sim, cluster.network

            def tap(node_id):
                def see(packet):  # a drop filter that drops nothing sees every packet
                    arrivals.append((sim.now, node_id, packet.message.payload, packet.index))
                    return False

                return see

            for node in cluster.nodes:
                node.register_handler("t", lambda m: None)
                node.nic.drop_filter = tap(node.node_id)

            def send(src, dst, tag, size, notify):
                on_sent = (lambda m: sent.append((sim.now, m.payload))) if notify else None
                cluster.node(src).send(
                    cluster.node(src).make_message(dst, "t", payload=tag, size=size), on_sent
                )

            _drive(sim, hand_overs, senders, shared, send)
            assert cluster.run() == reference_end
            assert sent == reference.sent
            assert network.stats.packets_sent == reference.packets_sent
            assert network.stats.wire_bytes == reference.wire_bytes
            for transmitter, busy in reference.busy_time.items():
                if shared:
                    assert network.utilization() == pytest.approx(busy / reference_end)
                else:
                    assert network.link_utilization(transmitter) == pytest.approx(
                        busy / reference_end
                    )
        # Same packets at the same floats; each destination sees them in time
        # order, equal times in hand-over order.  That is the pipeline's order
        # too, unless two transmitters tie at a destination (the tie rule).
        assert sorted(arrivals) == sorted(reference.arrivals)
        for node_id in range(_NODES):
            here = [arrival for arrival in arrivals if arrival[1] == node_id]
            assert here == sorted(here)
            if shared or len({time for time, *_ in here}) == len(here):
                assert here == [arrival for arrival in reference.arrivals if arrival[1] == node_id]


#: ``lossy_run`` at the parent commit (three events a packet, loss drawn at wire-done).
_LOSSY_AT_PARENT = {
    "ethernet": (
        [(0, 1), (0, 2), (0, 3), (1, 2), (3, 0), (3, 2), (5, 3), (6, 1), (6, 3), (8, 3), (9, 0),
         (9, 2), (9, 3), (10, 1), (11, 2), (12, 1), (12, 2), (15, 0), (15, 2), (16, 2), (17, 3),
         (18, 0), (18, 1), (18, 3), (19, 1), (20, 3), (21, 0), (21, 2), (21, 3), (24, 1), (24, 3),
         (26, 3), (27, 0), (27, 1), (28, 2), (30, 0), (30, 1), (30, 3), (32, 3), (33, 0), (34, 1),
         (35, 2), (36, 3), (38, 3), (39, 0), (39, 1)],
        25,
    ),
    "switched": (
        [(0, 1), (1, 2), (5, 3), (2, 3), (6, 0), (3, 0), (4, 2), (7, 1), (11, 2), (8, 3), (15, 0),
         (16, 2), (20, 3), (18, 0), (17, 3), (19, 1), (21, 0), (22, 1), (30, 0), (35, 2), (28, 2),
         (33, 0), (32, 3), (34, 1), (36, 1), (37, 2), (39, 0)],
        13,
    ),
}  # fmt: skip


def lossy_run(network_type):
    """40 tagged messages of 1-3 packets, three handed over per instant, under 30 % loss.

    Returns the ``(tag, destination)`` pairs delivered, in order, and the drop count.
    """
    delivered = []
    with make_cluster(4, network_type=network_type, loss_rate=0.3) as cluster:
        for node in cluster.nodes:
            node.register_handler(
                "t", lambda m, node_id=node.node_id: delivered.append((m.payload, node_id))
            )

        def hand_over(tag):
            src = cluster.node(tag % 4)
            broadcast = network_type == "ethernet" and tag % 3 == 0
            dst = None if broadcast else (tag % 4 + 1 + (tag // 4) % 3) % 4
            src.send(src.make_message(dst, "t", payload=tag, size=10 + (tag * 700) % 3500))

        for tag in range(40):
            cluster.sim.schedule((tag // 3) * 0.0011, hand_over, tag)
        cluster.run()
        return delivered, cluster.network.stats.packets_dropped


class TestOneEventPerPacket:
    @pytest.mark.parametrize("network_type", ["ethernet", "switched"])
    def test_a_single_packet_message_is_one_event_and_two_with_on_sent(self, network_type):
        with make_cluster(2, network_type=network_type) as cluster:
            sim, node = cluster.sim, cluster.node(0)
            cluster.node(1).register_handler("t", lambda m: None)
            node.send(node.make_message(1, "t", size=100))
            cluster.run()
            assert sim.events_processed == 1
            sent = []
            node.send(node.make_message(1, "t", size=100), on_sent=lambda m: sent.append(sim.now))
            started = sim.now
            cluster.run()
            assert sim.events_processed == 3
            # The frame has left the wire; it arrives one latency later.
            params = cluster.cost_model.network
            assert sent == [started + params.transmit_time(100)]
            assert sim.now == sent[0] + params.latency

    def test_a_fragmented_message_is_one_event_per_packet(self):
        with make_cluster(3) as cluster:
            for node in cluster.nodes:
                node.register_handler("t", lambda m: None)
            cluster.node(0).send(cluster.node(0).make_message(None, "t", size=4000))
            cluster.run()
            assert cluster.sim.events_processed == 3  # one per packet, however many listen
            assert cluster.total_interrupts() == 6

    def test_a_burst_from_one_sender_leaves_free_at_the_sum_of_transmit_times(self):
        with make_cluster(2, network_type="switched") as cluster:
            params, node = cluster.cost_model.network, cluster.node(0)
            cluster.node(1).register_handler("t", lambda m: None)
            free_at = 0.0
            for size in (100, 1500, 4000, 7):
                node.send(node.make_message(1, "t", size=size))
                for payload in [1500] * (size // 1500) + [size % 1500][: size % 1500]:
                    free_at += params.transmit_time(payload)
            assert cluster.network._links[0].free_at == free_at
            assert cluster.network._links[1].free_at == 0.0
            assert cluster.run() == free_at + params.latency

    @pytest.mark.parametrize("network_type", ["ethernet", "switched"])
    def test_loss_draws_fall_on_the_same_packets_as_at_the_parent(self, network_type):
        assert lossy_run(network_type) == _LOSSY_AT_PARENT[network_type]

    def test_a_receiver_that_crashes_with_a_packet_in_flight_discards_it(self):
        with make_cluster(2) as cluster:
            received = []
            cluster.node(1).register_handler("t", received.append)
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=1000))
            cluster.sim.schedule(1e-5, cluster.node(1).crash)  # handed over, not yet arrived
            cluster.run()
            assert received == [] and cluster.node(1).nic.stats.packets_discarded == 1
            assert cluster.network.stats.packets_sent == 1

    def test_a_sender_that_crashes_after_hand_over_is_still_heard(self):
        with make_cluster(2) as cluster:
            received = []
            cluster.node(1).register_handler("t", lambda m: received.append(m.payload))
            cluster.node(0).send(cluster.node(0).make_message(1, "t", payload="last words"))
            cluster.sim.schedule(1e-5, cluster.node(0).crash)
            cluster.run()
            assert received == ["last words"]

    def test_an_arrival_ties_with_its_send_not_with_the_end_of_its_transmission(self):
        """The tie rule: an arrival's place among events of its instant is taken at hand-over.

        A timer armed *after* the send for the bit-identical arrival time fires
        after the arrival (when the arrival was scheduled at wire-done, it fired
        before); one armed before the send still fires first.
        """
        with make_cluster(2) as cluster:
            params, log = cluster.cost_model.network, []
            arrival = params.transmit_time(1000) + params.latency
            cluster.node(1).register_handler("t", lambda m: log.append("arrival"))
            cluster.sim.schedule_at(arrival, log.append, "timer armed before the send")
            cluster.node(0).send(cluster.node(0).make_message(1, "t", size=1000))
            cluster.sim.schedule_at(arrival, log.append, "timer armed after the send")
            cluster.run()
            assert log == ["timer armed before the send", "arrival", "timer armed after the send"]
