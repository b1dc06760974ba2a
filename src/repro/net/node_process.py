"""The nodes of the real-process backend (``python -S -m repro.net.node_process``).

Run once per cluster, as its launcher, without ``site`` (``-S``: the node
code is the standard library plus ``repro``, which the harness puts on
``PYTHONPATH``, so no start-up hook of site-packages runs in a node's
image): it reads the cluster's
:class:`~repro.net.control.ClusterPlan` (pickled on its stdin by the harness
that spawned it), binds every node's UDP data-plane socket, so the peer table
is known before any node exists, then forks one child per node and exits, so
the harness (their subreaper) becomes the nodes' parent.  Each child closes
the other nodes' sockets, sends its stderr to ``node<id>.stderr``, boots
through :func:`~repro.net.runtime.boot_node` (peer table, seats, object
table, timers: the runtime is started), connects out to the harness's TCP
control listener, announces itself, and then runs the node's loop
(:meth:`~repro.net.host.RealNode.run`) on its main thread.  The loop serves
datagrams, timers and the harness's commands, one at a time:

``run_clients``
    Replay the plan's scenario setup against the local replicas (handle
    binding), then launch the plan's clients, one OS thread each.  Each
    client draws from ``random.Random`` seeded with its plan seed, the seed
    of the named stream its simulated twin draws from, in the same draw
    order, so the write multiset is identical across backends.
    Returns immediately; the harness waits with ``wait_clients``.
    The plan's ``park_at`` lists per-client acknowledged-operation counts at
    which every client parks (a staged crash is due) until the harness sends
    ``release``.
``release``
    Let the clients parked at the current kill threshold go on.
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

import json
import os
import pickle
import random
import socket
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..workloads.scenarios import Scenario, ScenarioRegistry
from ..workloads.spec import WorkloadSpec, client_schedule
from .control import MAX_LINE, ClusterPlan, encode_line
from .rts_adapter import ClientProc, RealRtsFacade
from .runtime import RealRuntime, boot_node
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
    schedule = client_schedule(spec, random.Random(seed))
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
    """One booted node process: its loop and the harness's commands."""

    def __init__(self, plan: ClusterPlan, runtime: RealRuntime) -> None:
        self.plan = plan
        self.runtime = runtime
        self.node = runtime.node
        # A plain connect to the numeric address: ``create_connection`` would
        # resolve it through ``getaddrinfo``, which loads the IDNA codec.
        self.control = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.control.connect((plan.host, plan.control_port))
        self.node.watch(self.control, self._on_control)
        #: The start of a command line not yet received whole.
        self._partial = b""
        self.pool = _ClientPool(self._client_changed)
        #: The timer that ends a ``wait_clients`` still unanswered.
        self._wait: Optional[int] = None
        self._reply({"hello": True, "node_id": self.node.node_id, "pid": os.getpid()})

    def serve(self) -> None:
        """Run the node's loop on this thread until ``shutdown`` or until
        the harness hangs up."""
        try:
            self.node.run()
        finally:
            self.runtime.stop()
            self.runtime.transport.close()
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
            if name == "run_clients":
                self._run_clients()
            elif name == "release":
                pool.release()
            elif name == "wait_clients":
                with node.lock:
                    self._wait = node.set_timer(float(command["timeout"]), self._answer_wait)
                    self._answer_wait(idle_only=True)
                return None
            elif name == "status":
                reply["clients"] = pool.summary()
                reply["runtime"] = self.runtime.status()
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

    def _run_clients(self) -> None:
        plan, pool = self.plan, self.pool
        scenario = ScenarioRegistry.create(plan.scenario, plan.spec)
        facade = RealRtsFacade(self.runtime, op_timeout=plan.op_timeout)
        scenario.setup(facade, None)
        pool.park_at = plan.park_at
        pool.started_at = time.monotonic()
        for client_id, seed in enumerate(plan.client_seeds[self.node.node_id]):
            proc = ClientProc(self.node.node_id, client_id)
            thread = threading.Thread(
                target=_client_loop, args=(facade, scenario, plan.spec, proc, pool, seed),
                name=f"client{client_id}", daemon=True)
            pool.threads.append(thread)
            thread.start()

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


def _run_node(plan: ClusterPlan, transport: UdpTransport,
              peers: Dict[int, Tuple[str, int]]) -> None:
    """In a forked child: boot node ``transport.node_id``, its stderr in
    ``node<id>.stderr``.  It exits here and never returns to the launcher's
    loop."""
    code = 1
    try:
        path = os.path.join(plan.stderr_dir, f"node{transport.node_id}.stderr")
        with open(path, "wb") as log:
            os.dup2(log.fileno(), 2)
        runtime = boot_node(transport, peers, plan.timings, plan.seats, plan.objects)
        # The main thread runs the loop: it lives as long as the process.
        NodeServer(plan, runtime).serve()
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def main() -> None:
    """Read the plan, bind every node's socket, fork every node, exit."""
    plan: ClusterPlan = pickle.load(sys.stdin.buffer)
    # The nodes share this process group, so the harness can reap them all,
    # also one that never said hello.  No thread runs here: forking is safe.
    os.setpgid(0, 0)
    transports = [UdpTransport(node_id) for node_id in range(plan.nodes)]
    peers = {transport.node_id: (plan.host, transport.open(plan.host))
             for transport in transports}
    for transport in transports:
        if os.fork() == 0:
            for other in transports:
                if other is not transport:
                    other.close()
            _run_node(plan, transport, peers)
    # Skip finalisation (~30 ms on one pinned CPU): the harness waits for this
    # exit before it starts the clients.
    os._exit(0)


if __name__ == "__main__":
    main()
