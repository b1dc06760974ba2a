"""The multi-process cluster harness of the real-socket backend.

:class:`RealCluster` owns the whole life cycle of one real run: it computes
the deterministic object table by replaying the scenario's setup against a
:class:`~repro.net.rts_adapter.RecordingRts`, spawns one
``repro.net.node_process`` child per node, distributes the peer/seat/object
tables over the control plane, fans the workload out to the client nodes,
optionally SIGKILLs victim nodes mid-run (the real-socket analogue of the
simulator's staged crashes; each kill is keyed to acknowledged-operation
progress, not to the clock), polls until every surviving node has quiesced —
clients finished, no pending writes, hold-back queues empty, every member
caught up with the seat its shard follows — and finally collects each node's
object states and applied logs for the oracle's convergence check.

Placement mirrors the simulator: object ids count from 1, id-hash placement
assigns shards, sequencer seats go round-robin over the non-victim machines,
and primary-copy seats go round-robin over the victims when a kill schedule
is configured (so every staged crash takes a live primary down) or over all
machines otherwise.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, NetworkError
from ..rts.sharding import HashPlacement
from ..workloads.scenarios import ScenarioRegistry
from ..workloads.spec import WorkloadSpec
from .control import NodeConnection
from .rts_adapter import RecordingRts, spec_to_payload
from .runtime import RealTimings


@dataclass(frozen=True)
class RealClusterConfig:
    """Everything one real-backend run needs to be reproducible."""

    scenario: str = "counter-farm"
    workload: Optional[WorkloadSpec] = None
    num_nodes: int = 3
    num_shards: int = 2
    clients_per_node: int = 1
    seed: int = 42
    timings: RealTimings = field(default_factory=RealTimings)
    #: Node ids killed mid-run (SIGKILL), and when — one ascending entry per
    #: victim: every client parks once that many of its own operations are
    #: acknowledged, the victim dies, the clients resume.  Victims host
    #: neither clients nor sequencer seats, mirroring the simulator's
    #: ``primary-churn``.
    victims: Tuple[int, ...] = ()
    kill_after: Tuple[int, ...] = ()
    host: str = "127.0.0.1"
    spawn_timeout: float = 30.0
    settle_timeout: float = 120.0
    op_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if len(self.kill_after) != len(self.victims):
            raise ConfigurationError(
                "kill_after needs exactly one entry per victim")
        if (not all(isinstance(ops, int) and ops > 0 for ops in self.kill_after)
                or list(self.kill_after) != sorted(set(self.kill_after))):
            raise ConfigurationError(
                "kill_after counts acknowledged operations per client: "
                "positive integers, strictly ascending")
        for victim in self.victims:
            if not 0 <= victim < self.num_nodes:
                raise ConfigurationError(f"victim {victim} is not a node id")
        if len(set(self.victims)) != len(self.victims):
            raise ConfigurationError("duplicate victim node ids")
        if len(self.victims) >= self.num_nodes:
            raise ConfigurationError("at least one node must survive")

    @property
    def spec(self) -> WorkloadSpec:
        return (self.workload
                or ScenarioRegistry.get(self.scenario).default_spec())

    @property
    def survivor_nodes(self) -> List[int]:
        return [node for node in range(self.num_nodes)
                if node not in self.victims]

    @property
    def client_nodes(self) -> List[int]:
        return self.survivor_nodes

    def seats(self) -> Dict[int, int]:
        """Shard -> sequencer-seat node, round-robin over the survivors."""
        hosts = self.survivor_nodes
        return {shard: hosts[shard % len(hosts)]
                for shard in range(self.num_shards)}

    def build_object_table(self) -> List[Dict[str, Any]]:
        """Replay setup against the recording stub; place and seat objects."""
        scenario = ScenarioRegistry.create(self.scenario, self.spec)
        recorder = RecordingRts()
        scenario.setup(recorder, None)
        placement = HashPlacement(self.num_shards, by="id")
        seats = self.seats()
        primary_hosts = (list(self.victims) if self.victims
                         else list(range(self.num_nodes)))
        next_primary = 0
        rows = []
        for row in recorder.rows:
            row = dict(row)
            shard = placement.shard_of(row["obj_id"], row["name"])
            row["shard"] = shard
            if row["policy"] == "primary-update":
                row["primary"] = primary_hosts[next_primary
                                               % len(primary_hosts)]
                next_primary += 1
            else:
                row["primary"] = seats[shard]
            rows.append(row)
        return rows


def _python_path_env() -> Dict[str, str]:
    """Child environment whose ``PYTHONPATH`` can import this very package."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    return env


class RealCluster:
    """Spawn, drive, optionally wound, settle and harvest one real cluster."""

    def __init__(self, config: RealClusterConfig) -> None:
        self.config = config
        self.object_table = config.build_object_table()
        self.seats = config.seats()
        self._children: Dict[int, subprocess.Popen] = {}
        self._conns: Dict[int, NodeConnection] = {}
        self._stderr_dir: Optional[str] = None
        self._killed: List[int] = []
        self._started = False

    # -- lifecycle -------------------------------------------------------- #

    def __enter__(self) -> "RealCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def start(self) -> None:
        """Spawn every node process and distribute the cluster tables."""
        config = self.config
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((config.host, 0))
        listener.listen(config.num_nodes)
        control_port = listener.getsockname()[1]
        self._stderr_dir = tempfile.mkdtemp(prefix="repro-net-")
        env = _python_path_env()
        try:
            for node_id in range(config.num_nodes):
                stderr = open(os.path.join(self._stderr_dir,
                                           f"node{node_id}.stderr"), "wb")
                with stderr:
                    self._children[node_id] = subprocess.Popen(
                        [sys.executable, "-m", "repro.net.node_process",
                         "--node-id", str(node_id),
                         "--control-port", str(control_port),
                         "--host", config.host],
                        stdout=subprocess.DEVNULL, stderr=stderr, env=env)
            deadline = time.monotonic() + config.spawn_timeout
            listener.settimeout(config.spawn_timeout)
            while len(self._conns) < config.num_nodes:
                if time.monotonic() > deadline:
                    raise NetworkError(self._spawn_failure("hello timeout"))
                try:
                    conn_sock, _addr = listener.accept()
                except socket.timeout:
                    raise NetworkError(
                        self._spawn_failure("hello timeout")) from None
                conn = NodeConnection(conn_sock)
                conn.read_hello(config.spawn_timeout)
                self._conns[conn.node_id] = conn
        finally:
            listener.close()
        peers = {node_id: [config.host, conn.udp_port]
                 for node_id, conn in self._conns.items()}
        for conn in self._conns.values():
            conn.request({
                "cmd": "start",
                "peers": peers,
                "seats": {str(shard): seat
                          for shard, seat in self.seats.items()},
                "objects": self.object_table,
                "timings": config.timings.as_payload(),
            }, timeout=config.spawn_timeout)
        self._started = True

    def _spawn_failure(self, why: str) -> str:
        lines = [f"real cluster failed to start ({why})"]
        for node_id, child in self._children.items():
            lines.append(f"  node {node_id}: returncode={child.poll()}")
            lines.append(self._stderr_tail(node_id))
        return "\n".join(lines)

    def _stderr_tail(self, node_id: int, limit: int = 2000) -> str:
        if self._stderr_dir is None:
            return ""
        path = os.path.join(self._stderr_dir, f"node{node_id}.stderr")
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return ""
        return data[-limit:].decode("utf-8", "replace")

    # -- the run ---------------------------------------------------------- #

    def run_workload(self) -> Dict[str, Any]:
        """Drive the configured workload to a settled, collected state."""
        if not self._started:
            self.start()
        config = self.config
        spec_payload = spec_to_payload(config.spec)
        for node_id in config.client_nodes:
            self._conns[node_id].request({
                "cmd": "run_clients",
                "scenario": config.scenario,
                "spec": spec_payload,
                "seed": config.seed,
                "clients": list(range(config.clients_per_node)),
                "op_timeout": config.op_timeout,
                "park_at": list(config.kill_after),
            }, timeout=config.spawn_timeout)
        self._settle()
        return self._collect()

    def kill_node(self, node_id: int) -> None:
        """SIGKILL one node process mid-run (no farewell on any plane)."""
        child = self._children.get(node_id)
        if child is None or child.poll() is not None:
            return
        child.kill()
        self._killed.append(node_id)
        conn = self._conns.pop(node_id, None)
        if conn is not None:
            conn.close()

    def _live_nodes(self) -> List[int]:
        return sorted(self._conns)

    def _settle(self) -> None:
        """Poll until clients are done and every survivor has quiesced."""
        config = self.config
        deadline = time.monotonic() + config.settle_timeout
        pending_kills = list(config.victims)
        last: Dict[int, Dict[str, Any]] = {}
        while True:
            if time.monotonic() > deadline:
                raise NetworkError(
                    "real cluster failed to settle within "
                    f"{config.settle_timeout}s; last statuses: {last}")
            time.sleep(0.05)
            statuses = {}
            for node_id in self._live_nodes():
                try:
                    statuses[node_id] = self._conns[node_id].request(
                        {"cmd": "status"}, timeout=config.spawn_timeout)
                except NetworkError:
                    raise NetworkError(
                        f"node {node_id} died unexpectedly:\n"
                        + self._stderr_tail(node_id))
            last = statuses
            errors = [error
                      for status in statuses.values()
                      for error in status["clients"]["errors"]]
            if errors:
                raise NetworkError("client failures:\n" + "\n".join(errors))
            if pending_kills:
                # The next crash is due once every client still running is
                # parked at its threshold (one that finished early counts as
                # past it): kill, then let the clients go on.
                clients = [statuses[node_id]["clients"]
                           for node_id in config.client_nodes]
                if all(pool["parked"] == pool["clients_running"]
                       for pool in clients):
                    self.kill_node(pending_kills.pop(0))
                    for node_id in config.client_nodes:
                        self._conns[node_id].request(
                            {"cmd": "release"}, timeout=config.spawn_timeout)
                continue
            if any(status["clients"]["clients_running"]
                   for node_id, status in statuses.items()
                   if node_id in config.client_nodes):
                continue
            if self._quiesced(statuses):
                return

    def _quiesced(self, statuses: Dict[int, Dict[str, Any]]) -> bool:
        runtime = {node_id: status["runtime"]
                   for node_id, status in statuses.items()}
        for state in runtime.values():
            if (state["pending_ops"] or state["primary_pending"]
                    or state["pending_updates"]):
                return False
        for shard in map(str, self.seats):
            # The seat every live member follows, which an election may
            # have moved off the launch-time one.
            named = {state["shards"][shard]["sequencer"]
                     for state in runtime.values()}
            seat = runtime.get(named.pop()) if len(named) == 1 else None
            if seat is None or shard not in seat["seats"]:
                return False
            for state in runtime.values():
                member = state["shards"][shard]
                if (member["holdback"]
                        or member["next_expected"] != seat["seats"][shard]):
                    return False
        return True

    def _collect(self) -> Dict[str, Any]:
        config = self.config
        nodes = {}
        for node_id in self._live_nodes():
            nodes[node_id] = self._conns[node_id].request(
                {"cmd": "collect"}, timeout=config.spawn_timeout)
        starts = [reply["clients"]["started_at"]
                  for node_id, reply in nodes.items()
                  if node_id in config.client_nodes]
        ends = [reply["clients"]["ended_at"]
                for node_id, reply in nodes.items()
                if node_id in config.client_nodes]
        elapsed = (max(ends) - min(starts)) if starts and ends else 0.0
        return {
            "scenario": config.scenario,
            "workload": config.spec.name,
            "num_nodes": config.num_nodes,
            "num_shards": config.num_shards,
            "seed": config.seed,
            "seats": dict(self.seats),
            "client_nodes": list(config.client_nodes),
            "killed": sorted(self._killed),
            "elapsed": max(elapsed, 1e-9),
            "reads": sum(reply["clients"]["reads"]
                         for reply in nodes.values()),
            "writes": sum(reply["clients"]["writes"]
                          for reply in nodes.values()),
            "nodes": nodes,
        }

    # -- teardown --------------------------------------------------------- #

    def shutdown(self) -> None:
        for node_id in list(self._conns):
            conn = self._conns.pop(node_id)
            try:
                conn.request({"cmd": "shutdown"}, timeout=5.0)
            except Exception:
                pass
            conn.close()
        for child in self._children.values():
            if child.poll() is None:
                try:
                    child.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait(timeout=5.0)
        self._children.clear()
        if self._stderr_dir is not None:
            import shutil

            shutil.rmtree(self._stderr_dir, ignore_errors=True)
            self._stderr_dir = None
        self._started = False
