"""Tests for the Amoeba RPC layer."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RpcError, RpcPeerDeadError, RpcTimeoutError


@pytest.fixture
def cluster():
    with Cluster(ClusterConfig(num_nodes=3, seed=11)) as c:
        yield c


class TestRpcBasics:
    def test_round_trip(self, cluster):
        cluster.rpc_for(1).register_service("echo", lambda req: req.payload * 2)
        results = []

        def client():
            proc = cluster.sim.current_process
            results.append(cluster.rpc_for(0).call(proc, 1, "echo", payload=21))

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert results == [42]

    def test_rpc_takes_nonzero_virtual_time(self, cluster):
        cluster.rpc_for(1).register_service("noop", lambda req: None)
        times = []

        def client():
            proc = cluster.sim.current_process
            cluster.rpc_for(0).call(proc, 1, "noop")
            times.append(cluster.sim.now)

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert times[0] > 0.0

    def test_local_call_skips_network(self, cluster):
        cluster.rpc_for(0).register_service("local", lambda req: req.payload + 1)
        results = []

        def client():
            proc = cluster.sim.current_process
            results.append(cluster.rpc_for(0).call(proc, 0, "local", payload=1))

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert results == [2]
        assert cluster.network.stats.messages_sent == 0

    def test_unknown_service_raises_at_caller(self, cluster):
        errors = []

        def client():
            proc = cluster.sim.current_process
            try:
                cluster.rpc_for(0).call(proc, 1, "missing")
            except RpcError as exc:
                errors.append(str(exc))

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert errors and "missing" in errors[0]

    def test_handler_exception_propagates_to_caller(self, cluster):
        def bad_handler(req):
            raise ValueError("broken service")

        cluster.rpc_for(1).register_service("bad", bad_handler)
        errors = []

        def client():
            proc = cluster.sim.current_process
            try:
                cluster.rpc_for(0).call(proc, 1, "bad")
            except RpcError as exc:
                errors.append(str(exc))

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert errors and "broken service" in errors[0]

    def test_duplicate_service_rejected(self, cluster):
        cluster.rpc_for(1).register_service("dup", lambda req: None)
        with pytest.raises(RpcError):
            cluster.rpc_for(1).register_service("dup", lambda req: None)

    def test_call_to_crashed_server_fails_fast(self, cluster):
        """The failure detector fails a call to a known-dead server
        immediately (no timeout burned waiting on a reply that cannot
        come) — the primitive primary-failure recovery re-routes on."""
        cluster.rpc_for(1).register_service("echo", lambda req: req.payload)
        cluster.node(1).crash()
        errors = []

        def client():
            proc = cluster.sim.current_process
            try:
                cluster.rpc_for(0).call(proc, 1, "echo", payload=1, timeout=0.5)
            except RpcPeerDeadError:
                errors.append("peer-dead")

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert errors == ["peer-dead"]

    def test_pending_call_fails_when_server_crashes_mid_call(self, cluster):
        """A call already in flight when its server dies is woken with
        RpcPeerDeadError by the cluster's crash listener."""
        def black_hole(req):
            proc = cluster.sim.current_process
            proc.hold(10.0)
            return "too late"

        cluster.rpc_for(1).register_service("hole", black_hole,
                                            may_block=True)
        errors = []

        def client():
            proc = cluster.sim.current_process
            try:
                cluster.rpc_for(0).call(proc, 1, "hole", payload=1)
            except RpcPeerDeadError:
                errors.append("peer-dead")

        def crasher():
            proc = cluster.sim.current_process
            proc.hold(0.01)
            cluster.node(1).crash()

        cluster.node(0).kernel.spawn_thread(client)
        cluster.node(2).kernel.spawn_thread(crasher)
        cluster.run()
        assert errors == ["peer-dead"]

    def test_timeout_when_server_is_slow(self, cluster):
        """A live-but-slow server still triggers the classic timeout."""
        def slow(req):
            proc = cluster.sim.current_process
            proc.hold(2.0)
            return "late"

        cluster.rpc_for(1).register_service("slow", slow, may_block=True)
        errors = []

        def client():
            proc = cluster.sim.current_process
            try:
                cluster.rpc_for(0).call(proc, 1, "slow", payload=1,
                                        timeout=0.5)
            except RpcTimeoutError:
                errors.append("timeout")

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert errors == ["timeout"]

    def test_blocking_handler_can_use_primitives(self, cluster):
        def slow_handler(req):
            proc = cluster.sim.current_process
            proc.hold(0.25)
            return "slept"

        cluster.rpc_for(2).register_service("slow", slow_handler, may_block=True)
        results = []

        def client():
            proc = cluster.sim.current_process
            results.append(cluster.rpc_for(0).call(proc, 2, "slow"))
            results.append(cluster.sim.now)

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert results[0] == "slept"
        assert results[1] >= 0.25

    def test_concurrent_clients_all_served(self, cluster):
        cluster.rpc_for(2).register_service("add", lambda req: sum(req.payload))
        results = []

        def client(node_id, a, b):
            proc = cluster.sim.current_process
            results.append(cluster.rpc_for(node_id).call(proc, 2, "add", payload=[a, b]))

        cluster.node(0).kernel.spawn_thread(client, 0, 1, 2)
        cluster.node(1).kernel.spawn_thread(client, 1, 3, 4)
        cluster.run()
        assert sorted(results) == [3, 7]

    def test_call_counters(self, cluster):
        cluster.rpc_for(1).register_service("echo", lambda req: req.payload)

        def client():
            proc = cluster.sim.current_process
            for i in range(3):
                cluster.rpc_for(0).call(proc, 1, "echo", payload=i)

        cluster.node(0).kernel.spawn_thread(client)
        cluster.run()
        assert cluster.rpc_for(0).calls_made == 3
        assert cluster.rpc_for(1).calls_served == 3


class TestKernelFacilities:
    def test_spawn_thread_pins_node(self, cluster):
        seen = []

        def body():
            seen.append(cluster.sim.current_process.node.node_id)

        cluster.node(2).kernel.spawn_thread(body)
        cluster.run()
        assert seen == [2]

    def test_timer_fire_and_cancel(self, cluster):
        fired = []
        kernel = cluster.node(0).kernel
        kernel.set_timer(1.0, lambda: fired.append("a"))
        timer_b = kernel.set_timer(2.0, lambda: fired.append("b"))
        kernel.cancel_timer(timer_b)
        cluster.run()
        assert fired == ["a"]

    def test_timer_suppressed_on_crashed_node(self, cluster):
        fired = []
        kernel = cluster.node(0).kernel
        kernel.set_timer(1.0, lambda: fired.append("a"))
        cluster.node(0).crash()
        cluster.run()
        assert fired == []

    def test_spawn_thread_starts_after_one_context_switch(self, cluster):
        started = []
        node = cluster.node(1)

        def body():
            started.append(cluster.sim.now)

        proc = node.kernel.spawn_thread(body, name="worker")
        cluster.run()
        assert proc.name.startswith("n1:worker")
        assert started == [node.cost_model.cpu.context_switch_cost]

    def test_a_finished_thread_lets_go_of_its_arguments(self, cluster):
        class Request:
            pass

        def body(request):
            cluster.sim.current_process.hold(0.5)

        requests = []
        for _ in range(5):
            request = Request()
            requests.append(weakref.ref(request))
            cluster.node(0).kernel.spawn_thread(body, request)
        del request
        cluster.run()
        gc.collect()
        assert [ref() for ref in requests] == [None] * 5

    def test_active_timers_counts_armed_timers(self, cluster):
        kernel = cluster.node(0).kernel
        kernel.set_timer(1.0, lambda: None)
        timer = kernel.set_timer(2.0, lambda: None)
        kernel.set_timer(3.0, lambda: None)
        assert kernel.active_timers == 3
        kernel.cancel_timer(timer)
        assert kernel.active_timers == 2
        cluster.run()
        assert kernel.active_timers == 0


def _echo_three_times(cluster):
    cluster.rpc_for(1).register_service("echo", lambda req: req.payload)

    def client():
        proc = cluster.sim.current_process
        for i in range(3):
            cluster.rpc_for(0).call(proc, 1, "echo", payload=[i] * 100)

    cluster.node(0).kernel.spawn_thread(client)
    cluster.run()


class TestClusterCounters:
    def test_counters_start_at_zero(self, cluster):
        assert cluster.counters() == {"events": 0, "wire_bytes": 0}

    def test_counters_are_the_simulator_and_network_totals(self, cluster):
        _echo_three_times(cluster)
        counters = cluster.counters()
        assert counters == {
            "events": cluster.sim.events_processed,
            "wire_bytes": cluster.network.stats.wire_bytes,
        }
        assert counters["events"] > 0
        # Six messages each carry a list payload larger than its packet overhead.
        assert counters["wire_bytes"] > 6 * 100

    def test_counters_repeat_for_the_same_seed(self):
        totals = []
        for _ in range(2):
            with Cluster(ClusterConfig(num_nodes=3, seed=11)) as cluster:
                _echo_three_times(cluster)
                totals.append(cluster.counters())
        assert totals[0] == totals[1]
