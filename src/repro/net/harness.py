"""The multi-process cluster harness of the real-socket backend.

:class:`RealCluster` owns the whole life cycle of one real run: it computes
the deterministic object table by replaying the scenario's setup against a
:class:`~repro.net.rts_adapter.RecordingRts`, spawns one launcher
(``python -S -m repro.net.node_process``) and hands it the run's
:class:`~repro.net.control.ClusterPlan` (seats, object table, timings
and client run) on its stdin, collects each node's ``hello`` — the launcher
forks every node already booted from the plan, then exits — starts the
clients on the client nodes, optionally SIGKILLs victim nodes mid-run (the
real-socket analogue of the simulator's staged crashes; each kill is keyed
to acknowledged-operation progress, not to the clock), waits until every
surviving node has quiesced — clients finished, no pending writes, hold-back
queues empty, every member caught up with the seat its shard follows — and
finally collects each node's object states and applied logs for the
oracle's convergence check.  The plan is unpickled only from that pipe,
never from a socket; commands and replies stay JSON lines.

The nodes stay children of the harness's own process: :meth:`RealCluster.start`
makes it their subreaper (``prctl(PR_SET_CHILD_SUBREAPER)``), so they pass
to it when the launcher exits.  It kills a node with ``os.kill`` and reaps it
at once, and :meth:`RealCluster.shutdown` reaps the rest, so a reader of its
direct children (``benchmarks/perf/worker.py``) counts the nodes.

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
from ..sim.rng import derive_seed
from ..workloads.scenarios import ScenarioRegistry
from ..workloads.spec import WorkloadSpec, client_stream
from .control import ClusterPlan, NodeConnection
from .rts_adapter import RecordingRts
from .runtime import RealTimings

#: Seconds between status rounds while the cluster has not yet quiesced
#: (its clients are done by then, so only in-flight messages remain).
SETTLE_POLL = 0.002

#: Seconds between looks at the launcher while waiting for the nodes' hellos,
#: so a launcher that dies fails :meth:`RealCluster.start` at once.
HELLO_POLL = 0.05


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

    def plan(self, control_port: int, stderr_dir: str,
             objects: List[Dict[str, Any]]) -> ClusterPlan:
        """The plan the launcher forks every node holding.  Each client's
        seed is that of the stream :func:`~repro.workloads.spec.client_stream`
        names, which the simulator's twin of the client draws from."""
        client_seeds = {node_id: [derive_seed(self.seed, client_stream(node_id, client_id))
                                  for client_id in range(self.clients_per_node)]
                        for node_id in self.client_nodes}
        return ClusterPlan(
            nodes=self.num_nodes, host=self.host, control_port=control_port,
            stderr_dir=stderr_dir, timings=self.timings, seats=self.seats(),
            objects=objects, scenario=self.scenario, spec=self.spec,
            client_seeds=client_seeds, op_timeout=self.op_timeout,
            park_at=self.kill_after)

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


#: ``prctl`` option that makes the caller adopt its orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


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


def _adopt_orphans() -> None:
    """Make this process the subreaper of its descendants (Linux).

    The launcher forks the nodes and exits; as subreaper this process becomes
    their parent, so it can reap them and a reader of its direct children
    (the benchmark's CPU and memory counts) sees the nodes.  ``ctypes`` is
    imported here, not at module import, as ``sim/process.py`` reaches
    ``mallopt``: it belongs to the harness and never to a node.
    """
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
    except (ImportError, OSError, AttributeError):
        prctl = None
    if prctl is None or prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise ConfigurationError(
            "the real backend needs prctl(PR_SET_CHILD_SUBREAPER), a Linux call: "
            "its launcher exits after forking the nodes, which must pass to this process")


class RealCluster:
    """Launch, drive, optionally wound, settle and harvest one real cluster."""

    def __init__(self, config: RealClusterConfig) -> None:
        self.config = config
        self.object_table = config.build_object_table()
        self.seats = config.seats()
        #: The launcher, whose pid is also the nodes' process group.
        self._launcher: Optional[subprocess.Popen] = None
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
        """Launch every node process, booted from the run's plan."""
        # Imported here, as ``signal`` and ``ctypes`` are, so that a process
        # which imports the harness but runs no real cluster never loads it.
        import pickle

        config = self.config
        _adopt_orphans()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((config.host, 0))
        listener.listen(config.num_nodes)
        self._stderr_dir = tempfile.mkdtemp(prefix="repro-net-")
        plan = config.plan(listener.getsockname()[1], self._stderr_dir, self.object_table)
        try:
            with open(os.path.join(self._stderr_dir, "launcher.stderr"), "wb") as stderr:
                # ``-S``: no ``site``, so no start-up hook of site-packages
                # runs in the launcher or lives in a node's image; the node
                # code is the standard library plus ``repro``, on PYTHONPATH.
                self._launcher = subprocess.Popen(
                    [sys.executable, "-S", "-m", "repro.net.node_process"],
                    stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=stderr,
                    env=_python_path_env())
            try:
                with self._launcher.stdin as plan_pipe:
                    pickle.dump(plan, plan_pipe)
            except BrokenPipeError:
                pass  # the launcher died before reading it: the poll below says so
            deadline = time.monotonic() + config.spawn_timeout
            listener.settimeout(HELLO_POLL)
            while len(self._conns) < config.num_nodes:
                returncode = self._launcher.poll()
                if returncode:
                    raise NetworkError(self._spawn_failure(f"launcher exit {returncode}"))
                if time.monotonic() > deadline:
                    raise NetworkError(self._spawn_failure("hello timeout"))
                try:
                    conn_sock, _addr = listener.accept()
                except socket.timeout:
                    continue
                conn = NodeConnection(conn_sock)
                conn.read_hello(config.spawn_timeout)
                self._conns[conn.node_id] = conn
        finally:
            listener.close()
        # Once the launcher is gone, its nodes are this process's children.
        try:
            returncode = self._launcher.wait(timeout=config.spawn_timeout)
        except subprocess.TimeoutExpired:
            raise NetworkError(self._spawn_failure("launcher did not exit")) from None
        if returncode != 0:
            raise NetworkError(self._spawn_failure(f"launcher exit {returncode}"))
        self._started = True

    def _spawn_failure(self, why: str) -> str:
        lines = [f"real cluster failed to start ({why})",
                 f"  launcher: returncode={self._launcher.poll()}",
                 self._stderr_tail("launcher")]
        for node_id in range(self.config.num_nodes):
            lines.append(f"  node {node_id}: "
                         + ("said hello" if node_id in self._conns else "no hello"))
            lines.append(self._stderr_tail(f"node{node_id}"))
        return "\n".join(lines)

    def _stderr_tail(self, name: str, limit: int = 2000) -> str:
        if self._stderr_dir is None:
            return ""
        path = os.path.join(self._stderr_dir, f"{name}.stderr")
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
        for node_id in self.config.client_nodes:
            self._conns[node_id].request({"cmd": "run_clients"},
                                         timeout=self.config.spawn_timeout)
        self._settle()
        return self._collect()

    def kill_node(self, node_id: int) -> None:
        """SIGKILL one node process mid-run (no farewell on any plane) and
        reap it."""
        import signal

        conn = self._conns.pop(node_id, None)
        if conn is None:
            return
        os.kill(conn.pid, signal.SIGKILL)
        os.waitpid(conn.pid, 0)
        self._killed.append(node_id)
        conn.close()

    def _live_nodes(self) -> List[int]:
        return sorted(self._conns)

    def _settle(self) -> None:
        """Wait until clients are done and every survivor has quiesced: block
        until each client node's clients have ended or parked, then check at
        once, re-polling every ``SETTLE_POLL`` seconds only while not yet
        quiescent."""
        config = self.config
        deadline = time.monotonic() + config.settle_timeout
        pending_kills = list(config.victims)
        last: Dict[int, Dict[str, Any]] = {}
        while True:
            if time.monotonic() > deadline:
                raise NetworkError(
                    "real cluster failed to settle within "
                    f"{config.settle_timeout}s; last statuses: {last}")
            for node_id in config.client_nodes:
                self._request(node_id, {
                    "cmd": "wait_clients",
                    "timeout": max(0.0, deadline - time.monotonic())},
                    timeout=config.settle_timeout + config.spawn_timeout)
            statuses = {node_id: self._request(node_id, {"cmd": "status"})
                        for node_id in self._live_nodes()}
            last = statuses
            errors = [error
                      for status in statuses.values()
                      for error in status["clients"]["errors"]]
            if errors:
                raise NetworkError("client failures:\n" + "\n".join(errors))
            clients = [statuses[node_id]["clients"]
                       for node_id in config.client_nodes]
            if not all(pool["parked"] == pool["clients_running"]
                       for pool in clients):
                continue  # ``wait_clients`` timed out: the deadline decides
            if pending_kills:
                # The next crash is due once every client still running is
                # parked at its threshold (one that finished early counts as
                # past it): kill, then let the clients go on.
                self.kill_node(pending_kills.pop(0))
                for node_id in config.client_nodes:
                    self._request(node_id, {"cmd": "release"})
                continue
            if self._quiesced(statuses):
                return
            time.sleep(SETTLE_POLL)

    def _request(self, node_id: int, command: Dict[str, Any],
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        """One control command to a node that must be alive."""
        try:
            return self._conns[node_id].request(
                command, timeout=timeout or self.config.spawn_timeout)
        except NetworkError:
            raise NetworkError(f"node {node_id} died unexpectedly:\n"
                               + self._stderr_tail(f"node{node_id}")) from None

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
        """Stop every node, wait for the launcher, then reap every node of
        its process group (also one that never said hello)."""
        for node_id in list(self._conns):
            conn = self._conns.pop(node_id)
            try:
                conn.request({"cmd": "shutdown"}, timeout=5.0)
            except Exception:
                pass
            conn.close()
        if self._launcher is not None:
            try:
                self._launcher.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self._launcher.kill()
                self._launcher.wait(timeout=5.0)
            _reap_group(self._launcher.pid, timeout=5.0)
            self._launcher = None
        if self._stderr_dir is not None:
            import shutil

            shutil.rmtree(self._stderr_dir, ignore_errors=True)
            self._stderr_dir = None
        self._started = False


def _reap_group(group: int, timeout: float) -> None:
    """Reap every child in process group ``group``; SIGKILL the group first
    if some are still running after ``timeout`` seconds."""
    import signal

    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status = os.waitpid(-group, os.WNOHANG)
        except ChildProcessError:
            return  # none left
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = float("inf")
        time.sleep(0.001)
