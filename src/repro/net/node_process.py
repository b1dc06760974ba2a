"""One node of the real-process backend (``python -m repro.net.node_process``).

The child binds a UDP data-plane socket on an ephemeral port, connects out
to the harness's TCP control listener, announces itself, and then serves
harness commands one at a time:

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
    threshold, or after ``timeout`` seconds.
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
import asyncio
import threading
import time
import traceback
from typing import Any, Dict, List, Tuple

from ..sim.rng import RngRegistry
from ..workloads.scenarios import Scenario, ScenarioRegistry
from ..workloads.spec import WorkloadSpec, client_schedule
from .control import AsyncControlChannel
from .rts_adapter import ClientProc, RealRtsFacade, spec_from_payload
from .runtime import RealRuntime, RealTimings
from .udp import UdpTransport

#: Ceiling on one closed-loop think-time sleep, so a long exponential draw
#: cannot stall a CI run (the draw still happens — stream alignment first).
MAX_THINK_SLEEP = 0.05


class _ClientPool:
    """The node's client threads and their shared progress counters."""

    def __init__(self) -> None:
        self.threads: List[threading.Thread] = []
        self.errors: List[str] = []
        self.reads = 0
        self.writes = 0
        #: Client threads that have returned (or are about to).
        self.ended = 0
        self.lock = threading.Lock()
        self.started_at: float = 0.0
        self.ended_at: float = 0.0
        #: Staged crashes: the thresholds, how many clients are parked at the
        #: next unreleased one, and how many the harness has released.
        self.park_at: Tuple[int, ...] = ()
        self.parked = 0
        self.released = 0
        self.gate = threading.Condition(self.lock)

    def note(self, is_write: bool) -> None:
        with self.lock:
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
            self.gate.notify_all()
            while self.released <= stage:
                self.gate.wait()

    def release(self) -> None:
        with self.gate:
            self.released += 1
            self.parked = 0  # every parked client waits at the stage released
            self.gate.notify_all()

    def wait_idle(self, timeout: float) -> None:
        """Block until every client has ended or parked, or ``timeout``."""
        with self.gate:
            self.gate.wait_for(lambda: self.running() == self.parked, timeout)

    def note_error(self, text: str) -> None:
        with self.lock:
            self.errors.append(text)

    def note_end(self) -> None:
        with self.gate:
            self.ended += 1
            self.ended_at = max(self.ended_at, time.monotonic())
            self.gate.notify_all()

    def running(self) -> int:
        return len(self.threads) - self.ended

    def summary(self) -> Dict[str, Any]:
        with self.lock:
            return {
                "clients_running": self.running(),
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
        pool.note_error(
            f"client {proc.node_id}.{proc.client_id}:\n"
            f"{traceback.format_exc()}")
    finally:
        pool.note_end()


async def serve(node_id: int, host: str, control_port: int) -> None:
    transport = UdpTransport(node_id)
    udp_port = await transport.open(host)
    reader, writer = await asyncio.open_connection(host, control_port)
    channel = AsyncControlChannel(reader, writer)
    await channel.send({"hello": True, "node_id": node_id,
                        "udp_port": udp_port})
    loop = asyncio.get_running_loop()
    runtime: RealRuntime = None  # set by "start"
    pool = _ClientPool()
    try:
        while True:
            command = await channel.recv()
            if command is None:
                break
            try:
                reply = {"ok": True}
                name = command["cmd"]
                if name == "start":
                    transport.set_peers({
                        int(peer): (addr[0], int(addr[1]))
                        for peer, addr in command["peers"].items()})
                    runtime = RealRuntime(
                        node_id, transport,
                        RealTimings(**command.get("timings", {})))
                    runtime.set_seats(command["seats"])
                    runtime.install_objects(command["objects"])
                    await runtime.start()
                elif name == "run_clients":
                    spec = spec_from_payload(command["spec"])
                    scenario = ScenarioRegistry.create(command["scenario"],
                                                       spec)
                    facade = RealRtsFacade(
                        runtime, op_timeout=float(command.get("op_timeout", 60.0)))
                    scenario.setup(facade, None)
                    pool.park_at = tuple(command.get("park_at", ()))
                    pool.started_at = time.monotonic()
                    for client_id in command["clients"]:
                        proc = ClientProc(node_id, int(client_id))
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
                    # A thread of the loop's executor blocks, not the loop.
                    await loop.run_in_executor(
                        None, pool.wait_idle, float(command["timeout"]))
                elif name == "status":
                    reply["clients"] = pool.summary()
                    reply["runtime"] = (runtime.status()
                                        if runtime is not None else None)
                elif name == "collect":
                    reply["clients"] = pool.summary()
                    reply.update(runtime.collect())
                elif name == "shutdown":
                    await channel.send(reply)
                    break
                else:
                    reply = {"ok": False, "error": f"unknown command {name!r}"}
                await channel.send(reply)
            except Exception as exc:
                await channel.send({"ok": False, "error": repr(exc),
                                    "traceback": traceback.format_exc()})
    finally:
        if runtime is not None:
            await runtime.stop()
        transport.close()
        channel.close()


def main(argv: List[str] = None) -> None:
    parser = argparse.ArgumentParser(
        description="one node of the real-process execution backend")
    parser.add_argument("--node-id", type=int, required=True)
    parser.add_argument("--control-port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args(argv)
    asyncio.run(serve(args.node_id, args.host, args.control_port))


if __name__ == "__main__":
    main()
