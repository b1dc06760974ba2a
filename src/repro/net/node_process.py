"""The nodes of the real-process backend (``python -m repro.net.node_process``).

Run once per cluster, as its launcher: it imports the node code once, forks
one child per node and exits, so the harness (their subreaper) becomes the
nodes' parent.  Each child sends its stderr to ``node<id>.stderr``, binds a
UDP data-plane socket on an ephemeral port, connects out to the harness's
TCP control listener, announces itself, and then runs the node's loop
(:meth:`~repro.net.host.RealNode.run`) on its main thread.  The loop serves
datagrams, timers and the harness's commands, one at a time:

``start``
    Install the peer table, shard seats, object table and protocol timers,
    then start the runtime (heartbeats, failure monitor).
``run_clients``
    Replay the scenario's setup against the local replicas (handle binding),
    then launch one OS thread per client.  Each client replays exactly the
    request stream its simulated twin draws — same named rng stream, same
    draw order — so the write multiset is identical across backends.
    Returns immediately; the harness waits with ``wait_clients``.
    ``park_at`` lists per-client acknowledged-operation counts at which every
    client parks (a staged crash is due) until the harness sends ``release``.
``wait_clients``
    Answers once every client thread has ended or parked at a kill
    threshold (each wakes the loop to check), or at a node timer after
    ``timeout`` seconds; the loop serves on meanwhile.
``status``
    Client progress plus the engine's quiescence counters.
``collect``
    Final object states, applied logs and statistics for the oracle.
``shutdown``
    Stop the engine and exit.

Client loops draw through :func:`~repro.workloads.spec.client_schedule`, as
the simulator's client bodies do: the think-time and arrival draws come from
the same rng stream as the requests, so the draw order is the requests'.
Timing itself is advisory — closed-loop pacing sleeps (bounded) real time,
open-loop arrivals are issued back to back — because the oracle compares
converged state, not timing.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..sim.rng import RngRegistry
from ..workloads.scenarios import Scenario, ScenarioRegistry
from ..workloads.spec import WorkloadSpec, client_schedule
from .control import MAX_LINE, encode_line
from .host import RealNode
from .rts_adapter import ClientProc, RealRtsFacade, spec_from_payload
from .runtime import RealRuntime, RealTimings
from .udp import UdpTransport

#: Ceiling on one closed-loop think-time sleep, so a long exponential draw
#: cannot stall a CI run (the draw still happens — stream alignment first).
MAX_THINK_SLEEP = 0.05


class _ClientPool:
    """The node's client threads and their shared progress counters."""

    def __init__(self, on_change: Callable[[], None]) -> None:
        #: Called, outside ``gate``, when a client ends or parks.
        self.on_change = on_change
        self.threads: List[threading.Thread] = []
        self.errors: List[str] = []
        self.reads = 0
        self.writes = 0
        #: Client threads that have returned (or are about to).
        self.ended = 0
        self.started_at: float = 0.0
        self.ended_at: float = 0.0
        #: Staged crashes: the thresholds, how many clients are parked at the
        #: next unreleased one, and how many the harness has released.
        self.park_at: Tuple[int, ...] = ()
        self.parked = 0
        self.released = 0
        self.gate = threading.Condition()

    def note(self, is_write: bool) -> None:
        with self.gate:
            if is_write:
                self.writes += 1
            else:
                self.reads += 1

    def park(self, done: int) -> None:
        """Hold a client at a kill threshold until the harness has killed
        the victim and released the stage."""
        stage = self.park_at.index(done)
        with self.gate:
            self.parked += 1
        self.on_change()
        with self.gate:
            while self.released <= stage:
                self.gate.wait()

    def release(self) -> None:
        with self.gate:
            self.released += 1
            self.parked = 0  # every parked client waits at the stage released
            self.gate.notify_all()

    def note_end(self, error: Optional[str]) -> None:
        with self.gate:
            self.ended += 1
            self.ended_at = max(self.ended_at, time.monotonic())
            if error is not None:
                self.errors.append(error)
        self.on_change()

    def summary(self) -> Dict[str, Any]:
        with self.gate:
            return {
                "clients_running": len(self.threads) - self.ended,
                "parked": self.parked,
                "reads": self.reads,
                "writes": self.writes,
                "errors": list(self.errors),
                "started_at": self.started_at,
                "ended_at": self.ended_at,
            }


def _client_loop(facade: RealRtsFacade, scenario: Scenario,
                 spec: WorkloadSpec, proc: ClientProc,
                 pool: _ClientPool, seed: int) -> None:
    rng = RngRegistry(seed).stream(
        f"workload.client.{proc.node_id}.{proc.client_id}")
    schedule = client_schedule(spec, rng)
    error = None
    try:
        for done, (request, pacing, value) in enumerate(schedule, 1):
            # Arrivals are issued back to back; a think time is slept.
            if pacing == "closed" and value > 0.0:
                time.sleep(min(value, MAX_THINK_SLEEP))
            scenario.perform(facade, proc, request)
            pool.note(request.is_write)
            if done in pool.park_at:
                pool.park(done)
    except Exception:
        error = f"client {proc.node_id}.{proc.client_id}:\n{traceback.format_exc()}"
    finally:
        pool.note_end(error)


class NodeServer:
    """One node process: its transport, its loop, the harness's commands."""

    def __init__(self, node_id: int, host: str, control_port: int) -> None:
        self.transport = UdpTransport(node_id)
        udp_port = self.transport.open(host)
        self.node = RealNode(node_id, self.transport)
        self.node.watch(self.transport.sock, self.transport.on_readable)
        self.control = socket.create_connection((host, control_port))
        self.node.watch(self.control, self._on_control)
        #: The start of a command line not yet received whole.
        self._partial = b""
        self.runtime: Optional[RealRuntime] = None  # set by "start"
        self.pool = _ClientPool(self._client_changed)
        #: The timer that ends a ``wait_clients`` still unanswered.
        self._wait: Optional[int] = None
        self._reply({"hello": True, "node_id": node_id, "udp_port": udp_port,
                     "pid": os.getpid()})

    def serve(self) -> None:
        """Run the node's loop on this thread until ``shutdown`` or until
        the harness hangs up."""
        try:
            self.node.run()
        finally:
            if self.runtime is not None:
                self.runtime.stop()
            self.transport.close()
            self.control.close()

    def _reply(self, obj: Dict[str, Any]) -> None:
        self.control.sendall(encode_line(obj))

    def _on_control(self) -> None:
        """Run the commands a ``recv`` completes.  The node keeps its own line
        buffer: a buffered file would hide bytes it read from ``select``."""
        try:
            data = self.control.recv(65536)
        except ConnectionError:
            data = b""
        if not data:  # the harness hung up
            self.node.halt()
            return
        *lines, self._partial = (self._partial + data).split(b"\n")
        if len(self._partial) > MAX_LINE:  # a framing bug: this node stops
            self.node.halt()
            raise NetworkError(f"oversized control line: {len(self._partial)} bytes")
        for line in lines:
            reply = self._execute(json.loads(line))
            if reply is not None:
                self._reply(reply)

    def _execute(self, command: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Run one command; its reply, or ``None`` when the reply comes later."""
        node, pool = self.node, self.pool
        try:
            reply = {"ok": True}
            name = command["cmd"]
            if name == "start":
                self.transport.set_peers({
                    int(peer): (addr[0], int(addr[1]))
                    for peer, addr in command["peers"].items()})
                self.runtime = RealRuntime(node, RealTimings(**command.get("timings", {})))
                self.runtime.set_seats(command["seats"])
                self.runtime.install_objects(command["objects"])
                self.runtime.start()
            elif name == "run_clients":
                spec = spec_from_payload(command["spec"])
                scenario = ScenarioRegistry.create(command["scenario"],
                                                   spec)
                facade = RealRtsFacade(
                    self.runtime, op_timeout=float(command.get("op_timeout", 60.0)))
                scenario.setup(facade, None)
                pool.park_at = tuple(command.get("park_at", ()))
                pool.started_at = time.monotonic()
                for client_id in command["clients"]:
                    proc = ClientProc(node.node_id, int(client_id))
                    thread = threading.Thread(
                        target=_client_loop,
                        args=(facade, scenario, spec, proc, pool,
                              int(command["seed"])),
                        name=f"client{client_id}", daemon=True)
                    pool.threads.append(thread)
                    thread.start()
            elif name == "release":
                pool.release()
            elif name == "wait_clients":
                with node.lock:
                    self._wait = node.set_timer(float(command["timeout"]), self._answer_wait)
                    self._answer_wait(idle_only=True)
                return None
            elif name == "status":
                reply["clients"] = pool.summary()
                reply["runtime"] = (self.runtime.status()
                                    if self.runtime is not None else None)
            elif name == "collect":
                reply["clients"] = pool.summary()
                reply.update(self.runtime.collect())
            elif name == "shutdown":
                node.halt()
            else:
                reply = {"ok": False, "error": f"unknown command {name!r}"}
        except Exception as exc:
            reply = {"ok": False, "error": repr(exc), "traceback": traceback.format_exc()}
        return reply

    def _client_changed(self) -> None:
        """On a client thread: have the loop look at the pool again."""
        with self.node.lock:
            self.node.set_timer(0.0, self._answer_wait, True)

    def _answer_wait(self, idle_only: bool = False) -> None:
        """Answer ``wait_clients`` when it times out or, once every client
        has ended or parked, at once."""
        clients = self.pool.summary()
        if self._wait is None or idle_only and clients["clients_running"] != clients["parked"]:
            return
        self.node.cancel_timer(self._wait)
        self._wait = None
        self._reply({"ok": True})


def _run_node(node_id: int, args: argparse.Namespace) -> None:
    """In a forked child: node ``node_id``, its stderr in ``node<id>.stderr``.
    It exits here and never returns to the launcher's loop."""
    code = 1
    try:
        with open(os.path.join(args.stderr_dir, f"node{node_id}.stderr"), "wb") as log:
            os.dup2(log.fileno(), 2)
        # The main thread runs the loop: it lives as long as the process.
        NodeServer(node_id, args.host, args.control_port).serve()
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def main(argv: List[str] = None) -> None:
    """Import the node code once, fork every node of the cluster, exit."""
    parser = argparse.ArgumentParser(
        description="launch the nodes of one real-process cluster")
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--stderr-dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args(argv)
    # The nodes share this process group, so the harness can reap them all,
    # also one that never said hello.  No thread runs here: forking is safe.
    os.setpgid(0, 0)
    for node_id in range(args.nodes):
        if os.fork() == 0:
            _run_node(node_id, args)
    # Skip finalisation (~30 ms on one pinned CPU): the harness waits for this
    # exit before it starts the nodes.
    os._exit(0)


if __name__ == "__main__":
    main()
