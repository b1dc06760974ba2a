"""Multi-process convergence tests: the tentpole's acceptance matrix.

Each test launches one OS process per node (``repro.net.node_process``
imports the node code once and forks them), runs a scenario over real UDP
sockets on loopback, waits for quiescence, and checks the converged state
against the deterministic stream replay — and, where marked, against a full
simulator run of the identical workload.  The kill test SIGKILLs the
primary-hosting victims mid-workload and requires the takeover protocol to
finish the run with exactly-once semantics intact.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net import harness
from repro.net.harness import RealCluster, RealClusterConfig
from repro.net.runner import run_real_workload
from repro.net.runtime import RealTimings
from repro.workloads.scenarios import PrimaryChurn, ScenarioRegistry

#: CI-friendly timers: fast retry/sync cycles, but a failure detector slow
#: enough that a briefly descheduled child is not declared dead under load.
CI_TIMINGS = RealTimings(heartbeat_interval=0.05, dead_after=0.5,
                         retry_interval=0.05, sync_interval=0.05,
                         gap_delay=0.03, submit_deadline=60.0)


def small_spec(scenario: str, ops: int = 30):
    return ScenarioRegistry.get(scenario).default_spec().with_overrides(
        ops_per_client=ops)


class TestConvergenceMatrix:
    """Three scenario kinds x two seeds, and a tenant kind (its spec carries
    ``TenantSpec`` rows), checked against the stream replay (itself
    cross-checked against the simulator in ``test_sim_oracle``)."""

    @pytest.mark.parametrize("scenario,seed", [
        ("counter-farm", 1), ("counter-farm", 2),
        ("fifo-queue", 7), ("fifo-queue", 8),
        ("hotspot-shift", 3), ("hotspot-shift", 4),
        ("multi-tenant-noisy-neighbour", 5),
    ])
    def test_converges(self, scenario, seed):
        report = run_real_workload(
            scenario=scenario, workload=small_spec(scenario),
            num_nodes=3, num_shards=2, seed=seed, timings=CI_TIMINGS)
        assert report.runtime == "real-sockets"
        if scenario == "hotspot-shift":
            # Trace-driven: the request count falls out of the arrival
            # trace (and run_real_workload already checked it against the
            # stream replay), not out of ops_per_client.
            assert report.total_ops > 0
        else:
            assert report.total_ops == 3 * 30
        assert report.elapsed > 0.0
        assert report.throughput > 0.0
        # Nobody died, so no member ever gave up on its seat.
        assert report.rts_summary["stats"]["elections"] == 0

    def test_sim_oracle_cross_check(self):
        # One full sim-vs-real comparison: the simulator runs the identical
        # workload and its per-object write counts and scenario facts must
        # match the real run's converged state.
        report = run_real_workload(
            scenario="counter-farm", workload=small_spec("counter-farm"),
            num_nodes=3, num_shards=2, seed=5, timings=CI_TIMINGS,
            sim_oracle=True)
        assert report.scenario_facts["counter_total"] >= 0

    def test_multiple_clients_per_node(self):
        report = run_real_workload(
            scenario="counter-farm", workload=small_spec("counter-farm", 15),
            num_nodes=3, num_shards=2, clients_per_node=2, seed=9,
            timings=CI_TIMINGS)
        assert report.num_clients == 6
        assert report.total_ops == 6 * 15
        # Real sockets have no simulator, so there is no event count to report.
        assert report.events is None
        assert report.rts_summary["stats"]["elections"] == 0


class TestPrimaryTakeover:
    def test_kill_mid_workload_converges(self):
        # Kill the (victim-parked) primaries mid-run: writes through the
        # dead primaries must block until takeover and then commit, and the
        # survivors must still agree with the simulator's crash run.
        num_nodes = 4
        victims = PrimaryChurn.victims_for(num_nodes)
        spec = small_spec("primary-churn", 120)
        report = run_real_workload(
            scenario="primary-churn", workload=spec, num_nodes=num_nodes,
            num_shards=2, seed=11, victims=victims,
            kill_after=tuple(30 + 30 * i for i in range(len(victims))),
            timings=CI_TIMINGS, sim_oracle=True)
        facts = report.scenario_facts
        assert facts["killed"] == sorted(victims)
        assert facts["takeovers"] > 0
        # Two survivors, 120 writes-or-reads each, none lost or duplicated.
        assert report.total_ops == 2 * 120
        assert facts["counter_total"] == report.writes


def parent_of(pid: int) -> int:
    stat = Path("/proc", str(pid), "stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[1])


def socket_inodes(pid: int) -> set:
    """The inodes of the sockets process ``pid`` holds open."""
    fd_dir = Path("/proc", str(pid), "fd")
    links = [os.readlink(fd_dir / fd) for fd in os.listdir(fd_dir)]
    return {link[len("socket:["):-1] for link in links if link.startswith("socket:[")}


def udp_inodes(pid: int) -> set:
    """The inodes of every UDP socket in process ``pid``'s network namespace."""
    inodes = set()
    for table in ("udp", "udp6"):
        path = Path("/proc", str(pid), "net", table)
        if path.exists():  # no ``udp6`` where IPv6 is off
            inodes |= {row.split()[9] for row in path.read_text().splitlines()[1:]}
    return inodes


class TestNodeOwnership:
    """The launcher exits; the harness's process owns and reaps the nodes."""

    def test_each_node_holds_exactly_its_own_udp_socket(self):
        # The launcher binds every node's socket before it forks; each child
        # must close the others' sockets, or a node would hold them all.
        cluster = RealCluster(RealClusterConfig(num_nodes=3, timings=CI_TIMINGS))
        try:
            cluster.start()
            held = {node_id: socket_inodes(conn.pid) & udp_inodes(conn.pid)
                    for node_id, conn in cluster._conns.items()}
        finally:
            cluster.shutdown()
        assert [len(inodes) for _node, inodes in sorted(held.items())] == [1, 1, 1]
        assert len(set.union(*held.values())) == 3

    def test_a_dead_launcher_fails_start_at_once(self, monkeypatch):
        # A launcher that cannot import the package exits non-zero before any
        # node exists; ``start`` says so without waiting out spawn_timeout.
        monkeypatch.setattr(harness, "_python_path_env",
                            lambda: dict(os.environ, PYTHONPATH=os.devnull))
        cluster = RealCluster(RealClusterConfig(num_nodes=2, timings=CI_TIMINGS,
                                                spawn_timeout=30.0))
        began = time.monotonic()
        try:
            with pytest.raises(NetworkError, match="launcher exit 1") as failure:
                cluster.start()
            assert time.monotonic() - began < 3.0
            assert "ModuleNotFoundError" in str(failure.value)
        finally:
            cluster.shutdown()

    def test_nodes_are_children_of_the_harness_and_reaped(self):
        cluster = RealCluster(RealClusterConfig(num_nodes=3, timings=CI_TIMINGS))
        pids = {}
        try:
            cluster.start()
            pids = {node_id: conn.pid for node_id, conn in cluster._conns.items()}
            assert sorted(pids) == [0, 1, 2]
            assert {parent_of(pid) for pid in pids.values()} == {os.getpid()}
            cluster.kill_node(2)
            # Reaped by ``kill_node`` itself: no zombie waits for shutdown.
            with pytest.raises(ChildProcessError):
                os.waitpid(pids[2], os.WNOHANG)
        finally:
            cluster.shutdown()
        assert [pid for pid in pids.values() if Path("/proc", str(pid)).exists()] == []

    def test_a_booted_node_maps_no_openssl_and_no_unicode_database(self):
        # A node's image is the protocol: no OpenSSL hash bindings (the
        # harness derives the clients' stream seeds), and no IDNA codec's
        # ``unicodedata`` (the control socket connects to a numeric address
        # without a resolver), also once a run has gone through every command.
        cluster = RealCluster(RealClusterConfig(
            workload=small_spec("counter-farm"), timings=CI_TIMINGS))
        try:
            cluster.run_workload()
            maps = {node_id: Path("/proc", str(conn.pid), "maps").read_text()
                    for node_id, conn in cluster._conns.items()}
        finally:
            cluster.shutdown()
        assert sorted(maps) == [0, 1, 2]
        for node_id, text in maps.items():
            mapped = {line.split()[-1] for line in text.splitlines() if "/" in line}
            found = sorted(path for path in mapped
                           if any(name in os.path.basename(path) for name in
                                  ("_hashlib", "libcrypto", "libssl", "unicodedata")))
            assert found == [], f"node {node_id} maps {found}"

    def test_start_refuses_without_a_subreaper(self, monkeypatch):
        import ctypes

        # A libc without ``prctl``: no fallback launch path, a clear error.
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
        cluster = RealCluster(RealClusterConfig(num_nodes=2, timings=CI_TIMINGS))
        try:
            with pytest.raises(ConfigurationError, match="PR_SET_CHILD_SUBREAPER"):
                cluster.start()
            assert cluster._launcher is None
        finally:
            cluster.shutdown()
