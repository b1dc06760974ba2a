"""In-process protocol-engine tests: several nodes, each running its own loop.

These run the real protocol engine over real UDP sockets without spawning
node processes, which makes loss injection (the transport's ``drop_tx`` /
``drop_rx`` hooks) and direct state inspection possible.  They are the
real-socket analogues of the simulator's NIC ``drop_filter`` tests: every
recovery mechanism — writer retry with sequencer dedupe, gap requests to
the seat or a peer, sequencer election, primary retransmit to unacked
replicas, heartbeat-driven takeover — must close the holes that injected
loss opens.  Ordered writes travel as the simulator's own ``grp.*`` kinds.

Each node runs its :class:`~repro.net.host.RealNode` loop on a thread of its
own, as a node process runs it on its main thread.  The test thread, and the
client threads on :class:`~repro.net.rts_adapter.RealRtsFacade`, issue
writes the way a node process's clients do: reads and writes both run on the
calling thread under the node's lock, and a write lives in one pending-write
record whose future the caller waits on.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import functools
import json
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba import message as message_module
from repro.amoeba.broadcast import group as group_module
from repro.amoeba.broadcast.protocol import OrderingEngine, SequencerLog
from repro.amoeba.message import Message
from repro.config import BroadcastParams
from repro.errors import NetworkError
from repro.net import runtime as runtime_module
from repro.net.host import RealNode
from repro.net.rts_adapter import ClientProc, RealRtsFacade
from repro.net.runtime import RealRuntime, RealTimings, resolve_spec
from repro.net.udp import UdpTransport
from repro.net.wire import ENVELOPE, MAX_FRAME, wire_text
from repro.orca.builtin_objects import BoolObject, IntObject
from repro.rts.base import ObjectHandle
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.p2p.fanout import SwitchRecord

#: Aggressive timers: these tests inject loss and wait for recovery, so the
#: retry/sync machinery must cycle quickly.
FAST = RealTimings(heartbeat_interval=0.03, dead_after=0.25,
                   retry_interval=0.03, sync_interval=0.03, gap_delay=0.02,
                   submit_deadline=20.0)


class Pair(ObjectSpec):
    """Two fields one write keeps equal, with a GIL yield between them."""

    def init(self, value: int = 0) -> None:
        self.a = value
        self.b = value

    @operation(write=True)
    def bump(self) -> int:
        self.a += 1
        time.sleep(0)  # let a reader run between the two halves
        self.b += 1
        return self.a

    @operation(write=False)
    def snapshot(self) -> list:
        return [self.a, self.b]


def object_table(policy: str, primary: int = 0, spec=IntObject):
    return [{
        "obj_id": 1,
        "name": "cell",
        "spec": f"{spec.__module__}:{spec.__name__}",
        "args": [0],
        "kwargs": {},
        "policy": policy,
        "shard": 0,
        "primary": primary,
    }]


def two_shard_table(policy: str):
    """Object 1 ("cell") on shard 0 and object 2 ("other") on shard 1; as
    primary-update objects, node 0 is the primary of one, node 1 of the other."""
    return object_table(policy) + [dict(object_table(policy, primary=1)[0],
                                        obj_id=2, name="other", shard=1)]


#: The seats of :func:`two_shard_table`'s shards.
TWO_SEATS = {0: 0, 1: 1}


def issue(runtime, obj_id, op_name, args=(), client=(0, 0), cseq=0):
    """Issue one write on ``runtime`` from this thread; its pending record."""
    return runtime.start_write(runtime.objects[obj_id], op_name, args, None, client, cseq)


def submit(runtime, obj_id, op_name, args=(), client=(0, 0), cseq=0, timeout=20.0):
    """Invoke one operation on ``runtime`` from this thread; its result."""
    obj = runtime.objects[obj_id]
    op = obj.spec_class.operation_def(op_name)
    if not op.is_write:
        return runtime.read(obj, op, tuple(args), None)
    return issue(runtime, obj_id, op_name, args, client, cseq).future.result(timeout)


def until(condition, timeout: float = 10.0, what: str = "the condition") -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def start_loop(node: RealNode) -> threading.Thread:
    thread = threading.Thread(target=node.run, name=f"node{node.node_id}-loop",
                              daemon=True)
    thread.start()
    return thread


def end_loop(node: RealNode, thread: threading.Thread) -> None:
    node.halt()
    thread.join(10.0)
    assert not thread.is_alive()


class InProcessCluster:
    """N nodes wired together in this process: a transport, a runtime and
    a loop thread each, and one :class:`RealRtsFacade` per node for real
    client threads."""

    def __init__(self, num_nodes: int, table, seats=None,
                 timings: RealTimings = FAST) -> None:
        self.num_nodes = num_nodes
        self.table = table
        self.seats = seats or {0: 0}
        self.timings = timings
        self.transports = {}
        self.runtimes = {}
        self._loops = {}
        self.handles = [ObjectHandle(obj_id=row["obj_id"], name=row["name"],
                                     spec_class=resolve_spec(row["spec"]))
                        for row in table]
        self.handle = self.handles[0]

    def __enter__(self) -> "InProcessCluster":
        peers = {}
        for node_id in range(self.num_nodes):
            transport = UdpTransport(node_id)
            peers[node_id] = ("127.0.0.1", transport.open())
            self.transports[node_id] = transport
        for node_id, transport in self.transports.items():
            transport.set_peers(peers)
            node = RealNode(node_id, transport)
            node.watch(transport.sock, transport.on_readable)
            runtime = RealRuntime(node, self.timings)
            runtime.set_seats(self.seats)
            runtime.install_objects(self.table)
            runtime.start()
            self.runtimes[node_id] = runtime
            self._loops[node_id] = start_loop(node)
        self.facades = {node_id: RealRtsFacade(runtime, op_timeout=20.0)
                        for node_id, runtime in self.runtimes.items()}
        return self

    def __exit__(self, *exc) -> None:
        for node_id in list(self.runtimes):
            self.silence(node_id)

    def silence(self, node_id: int) -> RealRuntime:
        """Node ``node_id`` goes silent, as a SIGKILL would leave it: its
        engine stops, its loop ends and its socket closes."""
        runtime = self.runtimes.pop(node_id)
        runtime.stop()
        end_loop(runtime.node, self._loops.pop(node_id))
        self.transports.pop(node_id).close()
        return runtime

    def _states(self, read):
        """``read(runtime)`` on every live node, each under its node's lock."""
        states = []
        for runtime in self.runtimes.values():
            with runtime.node.lock:
                states.append(read(runtime))
        return states

    def _wait(self, done, failure, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while not done():
            if time.monotonic() > deadline:
                raise AssertionError(failure())
            time.sleep(0.02)

    def converged(self, value: int, timeout: float = 10.0) -> None:
        """Wait until every replica of the cell reads ``value``."""
        def states():
            return self._states(lambda runtime: runtime.objects[1].instance.value)

        self._wait(lambda: all(state == value for state in states()),
                   lambda: f"replicas never converged to {value}: {states()}", timeout)

    def converged_state(self, state, timeout: float = 10.0) -> None:
        """Wait until every replica's ``snapshot`` reads ``state``."""
        def states():
            return self._states(lambda runtime: runtime.objects[1].instance.snapshot())

        self._wait(lambda: all(found == state for found in states()),
                   lambda: (f"replicas never converged to {state}: {states()}\n"
                            + self.diagnosis()), timeout)

    def logs_agree(self, obj_id: int, length: int, timeout: float = 10.0) -> None:
        """Wait until every replica of ``obj_id`` has applied ``length``
        writes, all in one order, and holds one state."""
        def read():
            return self._states(lambda runtime: (
                list(runtime.objects[obj_id].applied_log),
                runtime.objects[obj_id].instance.marshal_state()))

        def agree():
            found = read()
            logs = [log for log, _state in found]
            return (len(logs[0]) == length and all(log == logs[0] for log in logs)
                    and all(state == found[0][1] for _log, state in found))

        def failure():
            found = read()
            return (f"object {obj_id}'s replicas never agreed on {length} writes: "
                    f"{[len(log) for log, _state in found]} applied, states "
                    f"{[state for _log, state in found]}\n" + self.diagnosis())

        self._wait(agree, failure, timeout)

    def diagnosis(self) -> str:
        """Each runtime's status and counters (elections, suppressed
        duplicates, retransmissions, peers declared dead, socket drops),
        so a convergence failure names its mechanism."""
        lines = []
        for node_id, runtime in self.runtimes.items():
            collected = runtime.collect()
            lines.append(f"node {node_id}: status={runtime.status()} "
                         f"stats={collected['stats']} "
                         f"transport={collected['transport']}")
        return "\n".join(lines)

    def run_clients(self, body, clients_per_node: int = 2, timeout: float = 60.0):
        """Run ``body(facade, proc)`` on one thread per client; re-raise the
        first failure, and fail if a client is still running at the end."""
        failures = []

        def guarded(facade, proc):
            try:
                body(facade, proc)
            except BaseException as exc:  # reported on the test thread below
                failures.append(exc)

        threads = [threading.Thread(target=guarded,
                                    args=(facade, ClientProc(node_id, client_id)),
                                    daemon=True)
                   for node_id, facade in self.facades.items()
                   for client_id in range(clients_per_node)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads)
        if failures:
            raise failures[0]


def drop_first(kinds, count=1):
    """A drop hook that swallows the first ``count`` messages of ``kinds``."""
    remaining = {"n": count}

    def hook(msg, *args):
        if msg.kind in kinds and remaining["n"] > 0:
            remaining["n"] -= 1
            return True
        return False

    return hook


class TestOrderedPath:
    def test_writes_from_every_node_converge(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            for node_id, runtime in cluster.runtimes.items():
                submit(runtime, 1, "add", (1,), client=(node_id, 0), cseq=1)
            cluster.converged(3)

    def test_lost_data_broadcast_recovered_via_gap_request(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            # Node 2 misses the first data broadcast; the next in-order
            # delivery (or a sync) reveals the gap and the seat's
            # history refills it.
            cluster.transports[2].drop_rx = drop_first(("grp.data",))
            for cseq in (1, 2):
                submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=cseq)
            cluster.converged(2)
            assert cluster.transports[2].stats.recv_drops == 1
            assert cluster.transports[2].stats.by_kind["grp.retransmit_req"] >= 1

    def test_lost_request_retried_and_deduped_at_seat(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            # The writer's first two ordering requests vanish; its
            # member re-sends until the seat numbers one.
            cluster.transports[1].drop_tx = drop_first(("grp.request",), 2)
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            assert cluster.transports[1].stats.by_kind["grp.request"] == 3

    def test_retry_of_a_sequenced_request_is_deduped_at_the_seat(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            # The writer never hears its data (nor a sync), so it
            # re-sends a request the seat has already numbered: the
            # seat's uid table answers with the same record.
            first = drop_first(("grp.data",))
            cluster.transports[1].drop_rx = (
                lambda msg: msg.kind == "grp.sync" or first(msg))
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            seat = cluster.runtimes[0].groups[0].sequencer
            assert seat.duplicates_suppressed == 1 and seat.log.next_seq == 2
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].applied_log == [[1, 0, 1, "add"]]
                assert runtime.collect()["stats"]["elections"] == 0

    def test_a_survivors_write_completes_after_the_seat_dies(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            # The seat of shard 0 goes silent, as a SIGKILL would leave it.
            cluster.silence(0)
            result = submit(cluster.runtimes[2], 1, "add", (1,), client=(2, 0), cseq=1,
                            timeout=15.0)
            assert result == 2
            cluster.converged(2)
            groups = [runtime.groups[0] for runtime in cluster.runtimes.values()]
            # Both survivors know seqno 1; the tie goes to the lowest id.
            assert [group.sequencer_node_id for group in groups] == [1, 1]
            assert groups[0].sequencer is not None and groups[1].sequencer is None
            assert sum(group.stats.elections for group in groups) >= 1

    def test_a_lost_election_announcement_is_settled_by_another_election(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            # The seat of shard 0 dies and node 2 misses the winner's
            # announcement while node 1 keeps writing through the winner:
            # node 2 must not go on following the dead seat.
            cluster.transports[2].drop_rx = drop_first(("grp.coordinator",))
            cluster.silence(0)
            stop, written, failures = threading.Event(), [1], []

            def keep_writing():
                try:
                    while not stop.is_set():
                        written[0] += 1
                        submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0),
                               cseq=written[0])
                        time.sleep(0.005)
                except BaseException as exc:  # re-raised on the test thread
                    failures.append(exc)

            writer = threading.Thread(target=keep_writing, daemon=True)
            writer.start()
            try:
                submit(cluster.runtimes[2], 1, "add", (1,), client=(2, 0), cseq=1,
                       timeout=5.0)
            finally:
                stop.set()
                writer.join(30.0)
            assert not writer.is_alive() and failures == []
            cluster.converged(written[0] + 1)
            survivors = list(cluster.runtimes.values())
            assert survivors[0].objects[1].applied_log == survivors[1].objects[1].applied_log
            assert [rt.groups[0].sequencer_node_id for rt in survivors] == [1, 1]
            assert cluster.transports[2].stats.recv_drops == 1

    def test_a_deposed_seat_numbers_nothing_the_survivors_apply(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            # The seat of shard 0 is cut off for longer than dead_after
            # (a partition, or a paused process).  The survivors elect
            # node 1, which numbers from seqno 2; so does the old seat,
            # for its own writes, and it numbers more of them.
            cut, deposed = cluster.transports[0], cluster.runtimes[0]
            cut.drop_tx, cut.drop_rx = (lambda msg, dst: True), (lambda msg: True)
            for cseq in (2, 3):
                submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=cseq,
                       timeout=10.0)
            for cseq in range(1, 5):
                submit(deposed, 1, "add", (10,), client=(0, 0), cseq=cseq)
            time.sleep(2 * FAST.dead_after)
            group = deposed.groups[0]
            with deposed.node.lock:  # it hears nothing before the check
                cut.drop_tx = cut.drop_rx = None
                assert group.sequencer_node_id == 0 and group.sequencer.log.next_seq == 6
            # Back, it hears numbers from another node and calls an
            # election; a follower of the newer seat wins it, not the
            # node that knows the highest seqno: the old seat steps down.
            for node_id in (1, 2):
                submit(cluster.runtimes[node_id], 1, "add", (1,), client=(node_id, 0),
                       cseq=9, timeout=10.0)
            until(lambda: group.sequencer is None, 10.0, "the old seat to step down")
            assert group.sequencer_node_id == 1 and group.epoch >= 2
            cluster.silence(0)
            cluster.converged(5)
            logs = [rt.objects[1].applied_log for rt in cluster.runtimes.values()]
            assert logs[0] == logs[1]
            assert [entry[0] for entry in logs[0]] == [1, 1, 1, 1, 2]


class TestPrimaryPath:
    def test_remote_writes_converge(self):
        table = object_table("primary-update", primary=0)
        with InProcessCluster(3, table) as cluster:
            for node_id, runtime in cluster.runtimes.items():
                submit(runtime, 1, "add", (1,), client=(node_id, 0), cseq=1)
            cluster.converged(3)

    def test_lost_update_broadcast_retransmitted(self):
        table = object_table("primary-update", primary=0)
        with InProcessCluster(3, table) as cluster:
            # Replica 2 misses the first propagated update; the primary
            # keeps retransmitting to unacked replicas until ack-all.
            cluster.transports[2].drop_rx = drop_first(("net.pupd",))
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)

    def test_lost_ack_resend_is_exactly_once(self):
        table = object_table("primary-update", primary=0)
        with InProcessCluster(3, table) as cluster:
            # The result ack back to the writer vanishes; the writer
            # re-sends the write and the primary's wid table answers
            # from memory instead of applying twice.
            cluster.transports[0].drop_tx = drop_first(("net.pack",))
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            assert cluster.runtimes[0].objects[1].instance.value == 1

    def test_a_stale_duplicate_write_is_not_applied(self):
        table = object_table("primary-update", primary=0)
        with InProcessCluster(3, table) as cluster:
            requests = []  # every net.pwrite node 1 sends; nothing dropped
            cluster.transports[1].drop_tx = (
                lambda msg, dst: msg.kind == "net.pwrite" and requests.append(msg))
            writer, primary = cluster.runtimes[1], cluster.runtimes[0]
            for cseq in (1, 2):
                submit(writer, 1, "add", (1,), client=(1, 0), cseq=cseq)
            cluster.converged(2)
            deduplicated = primary.stats.deduplicated_writes
            updates = cluster.transports[0].stats.by_kind["net.pupd"]
            # The first write's request arrives again after the second
            # applied: the client has moved on, so it is not applied.
            primary.node.dispatch(requests[0])
            time.sleep(3 * FAST.retry_interval)
            assert primary.stats.deduplicated_writes == deduplicated + 1
            assert cluster.transports[0].stats.by_kind["net.pupd"] == updates
            cluster.converged(2)

    def test_the_primary_tables_are_bounded(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "BroadcastParams",
                            functools.partial(BroadcastParams, history_size=4))
        table = object_table("primary-update", primary=2)
        with InProcessCluster(3, table) as cluster:
            for cseq in range(1, 5):
                for node, client in ((0, 0), (1, 0), (1, 1)):
                    submit(cluster.runtimes[node], 1, "add", (1,), client=(node, client),
                           cseq=cseq)
            cluster.converged(12)
            assert len(cluster.runtimes[2].objects[1].log) <= 4
            for runtime in cluster.runtimes.values():
                assert len(runtime.objects[1].applied) == 3
            # The takeover record carries one entry per client too, and
            # of the applied log only the seat log's window.
            proposals = []
            survivor = cluster.runtimes[1]
            install = survivor._ordered_kinds["switch"]
            with survivor.node.lock:
                survivor._ordered_kinds["switch"] = (
                    lambda body: proposals.append(body) or install(body))
            cluster.silence(2)
            assert submit(survivor, 1, "add", (1,), client=(1, 0), cseq=5,
                          timeout=15.0) == 13
            records = [SwitchRecord(*body["record"]) for body in proposals]
            assert [len(record.snapshot[2]) for record in records] == [3]
            assert [len(body["log"]) for body in proposals] == [4]
            cluster.converged(13)
            logs = [runtime.objects[1].applied_log
                    for runtime in cluster.runtimes.values()]
            assert len(logs[0]) == 13 and all(log == logs[0] for log in logs)


class TestTakeover:
    def test_surviving_node_adopts_dead_primary(self):
        table = object_table("primary-update", primary=2)
        with InProcessCluster(3, table) as cluster:
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            # Node 2 (the primary) goes silent: stop its engine, its loop
            # and its socket, as a SIGKILL would.
            dead = cluster.silence(2)
            # A write through the dead primary must block until the
            # lowest-id survivor takes the object over, then commit.
            result = submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=2,
                            timeout=15.0)
            assert result == 2
            cluster.converged(2)
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].primary == 0
            assert dead is not None

    def test_collect_is_json_native_after_a_takeover(self):
        """``collect`` passes the applied log without normalising it: the
        entries a write logs and the tail a takeover installs must already
        survive a JSON round trip unchanged."""
        table = object_table("primary-update", primary=2)
        with InProcessCluster(3, table) as cluster:
            for node_id in (0, 1):
                submit(cluster.runtimes[node_id], 1, "add", (1,), client=(node_id, 0),
                       cseq=1)
            cluster.silence(2)
            assert submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=2,
                          timeout=15.0) == 3
            cluster.converged(3)
            for runtime in cluster.runtimes.values():
                assert runtime.stats.takeovers == 1
                collected = runtime.collect()
                assert len(collected["objects"]["1"]["applied_log"]) == 3
                assert json.loads(json.dumps(collected)) == collected

    def test_a_proposal_lost_with_its_proposer_is_made_again(self):
        """The lowest live node proposes a takeover and dies before it is
        sequenced: the next lowest proposes again for the seat that died
        first, not only for the proposer's own."""
        table = object_table("primary-update", primary=3)
        with InProcessCluster(4, table, seats={0: 1}) as cluster:
            submit(cluster.runtimes[2], 1, "add", (1,), client=(2, 0), cseq=1)
            cluster.converged(1)
            # Node 0's broadcasts never reach the seat (node 1).
            cluster.transports[0].drop_tx = (
                lambda msg, dst: msg.kind == "grp.request")
            cluster.silence(3)
            until(lambda: cluster.runtimes[0]._pending and not any(
                cluster.transports[node].peer_alive(3) for node in (1, 2)),
                10.0, "node 0 to propose")
            cluster.silence(0)
            result = submit(cluster.runtimes[2], 1, "add", (1,), client=(2, 0), cseq=2,
                            timeout=15.0)
            assert result == 2
            cluster.converged(2)
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].primary == 1
                assert runtime.stats.takeover_failures == 0

    def test_a_switch_to_a_dead_seat_is_taken_over_again(self):
        """Node 1 delivers node 0's takeover only after node 0 died: the
        delivered switch names a dead seat, so node 1 proposes again."""
        table = object_table("primary-update", primary=3)
        with InProcessCluster(4, table, seats={0: 2}) as cluster:
            submit(cluster.runtimes[1], 1, "add", (1,), client=(1, 0), cseq=1)
            cluster.converged(1)
            deaf = {"on": True}  # node 1 hears nothing node 0 broadcast
            cluster.transports[1].drop_rx = lambda msg: deaf["on"] and (
                msg.kind in ("grp.data", "grp.retransmit") and msg.payload[1] == 0)
            cluster.silence(3)
            until(lambda: cluster.runtimes[2].objects[1].primary == 0, 10.0,
                  "node 0 to take over")
            cluster.silence(0)
            until(lambda: cluster.runtimes[1]._pending, 10.0, "node 1 to propose")
            deaf["on"] = False
            result = submit(cluster.runtimes[2], 1, "add", (1,), client=(2, 0), cseq=1,
                            timeout=15.0)
            assert result == 2
            cluster.converged(2)
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].primary == 1
                assert runtime.objects[1].epoch == 2


class TestWriteRecord:
    """The pending-write record behind ``start_write()`` and ``invoke()``."""

    def test_dropped_request_resent_after_retry_interval_applied_once(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            writer = cluster.runtimes[1]
            cluster.transports[1].drop_tx = drop_first(("grp.request",))
            started = time.monotonic()
            result = submit(writer, 1, "add", (1,), client=(1, 0), cseq=1)
            assert time.monotonic() - started >= FAST.retry_interval
            assert result == 1
            assert cluster.transports[1].stats.by_kind["grp.request"] == 2
            cluster.converged(1)
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].applied_log == [[1, 0, 1, "add"]]

    def test_resolving_a_write_cancels_its_timer(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            writer = cluster.runtimes[1]
            member = writer.groups[0].member(1)
            with cluster.runtimes[0].node.lock:  # the seat numbers nothing meanwhile
                record = issue(writer, 1, "add", (1,), client=(1, 0), cseq=1)
                assert list(writer._pending.values()) == [record]
                [send] = member._pending_sends.values()
                assert record.key == (0, send.uid.counter)
                assert send.retry_timer in writer.node._timers
            assert record.future.result(20.0) == 1
            with writer.node.lock:
                # Only the failure detector's own two timers are left armed.
                assert member._pending_sends == {}
                assert sorted(callback.__name__ for callback, _args
                              in writer.node._timers.values()) == ["_heartbeat", "_monitor"]
                assert writer._pending == {}
            assert writer.status()["pending_ops"] == 0

    def test_guard_retry_reissues_after_gap_delay_under_a_fresh_uid(self):
        table = object_table("broadcast", spec=BoolObject)
        with InProcessCluster(3, table) as cluster:
            waiter = cluster.runtimes[1]
            blocked = issue(waiter, 1, "await_true", client=(1, 0), cseq=1)
            uids = set()
            deadline = time.monotonic() + 10.0
            while waiter.stats.guard_retries < 2:
                assert time.monotonic() < deadline, "no second guard retry"
                time.sleep(FAST.gap_delay / 4)
                with waiter.node.lock:
                    uids.update(waiter._pending)  # stays pending between issues
                    assert len(waiter._pending) == 1
            assert len(uids) >= 2
            assert waiter.stats.ordered_writes >= waiter.stats.guard_retries
            assert not blocked.future.done()
            submit(cluster.runtimes[2], 1, "set", (True,), client=(2, 0), cseq=1)
            assert blocked.future.result(10.0) is True
            assert waiter._pending == {}
            # A guard RETRY leaves no trace in the applied log.
            assert waiter.objects[1].applied_log == [[2, 0, 1, "set"],
                                                     [1, 0, 1, "await_true"]]

    def test_stop_fails_pending_writes(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            writer = cluster.runtimes[1]
            cluster.transports[1].drop_tx = lambda msg, dst: msg.kind == "grp.request"
            record = issue(writer, 1, "add", (1,), client=(1, 0), cseq=1)
            time.sleep(2 * FAST.retry_interval)
            writer.stop()
            assert writer._pending == {} and writer.node._timers == {}
            with pytest.raises(NetworkError):
                record.future.result(0)

    def test_dropped_primary_request_resent_and_applied_once(self):
        table = object_table("primary-update", primary=0)
        with InProcessCluster(3, table) as cluster:
            writer = cluster.runtimes[1]
            cluster.transports[1].drop_tx = drop_first(("net.pwrite",))
            started = time.monotonic()
            with cluster.runtimes[0].node.lock:  # the primary applies nothing meanwhile
                record = issue(writer, 1, "add", (1,), client=(1, 0), cseq=1)
                assert list(writer._pending) == [("1.0", 1)]
            assert record.future.result(20.0) == 1
            assert time.monotonic() - started >= FAST.retry_interval
            assert cluster.transports[1].stats.by_kind["net.pwrite"] == 2
            with writer.node.lock:
                assert record.handle not in writer.node._timers and writer._pending == {}
            cluster.converged(1)
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].applied_log == [[1, 0, 1, "add"]]
                assert runtime.objects[1].version == 1

    def test_a_write_applying_on_its_primary_outlives_the_submit_deadline(self):
        timings = dataclasses.replace(FAST, submit_deadline=0.2)
        table = object_table("primary-update", primary=0)
        with InProcessCluster(3, table, timings=timings) as cluster:
            # Replica 2 misses the update for longer than the deadline:
            # the primary's own write is already applied and re-sends
            # until every live peer has acknowledged; no sweep ends it.
            cluster.transports[2].drop_rx = drop_first(("net.pupd",), 12)
            primary = cluster.runtimes[0]
            result = submit(primary, 1, "add", (1,), client=(0, 0), cseq=1, timeout=10.0)
            assert result == 1 and cluster.transports[2].stats.recv_drops == 12
            cluster.converged(1)
            assert primary.status()["primary_pending"] == 0

    @pytest.mark.parametrize("waiter_id", [0, 1], ids=["on-the-primary", "remote"])
    def test_primary_guard_retry_reissues_under_the_same_wid(self, waiter_id):
        table = object_table("primary-update", primary=0, spec=BoolObject)
        with InProcessCluster(3, table) as cluster:
            waiter = cluster.runtimes[waiter_id]
            blocked = issue(waiter, 1, "await_true", client=(waiter_id, 0), cseq=1)
            deadline = time.monotonic() + 10.0
            while waiter.stats.guard_retries < 2:
                assert time.monotonic() < deadline, "no second guard retry"
                time.sleep(FAST.gap_delay / 4)
                with waiter.node.lock:
                    assert list(waiter._pending) == [(f"{waiter_id}.0", 1)]
            # Counted per issue, so once per guard RETRY already seen.
            assert waiter.stats.primary_writes >= waiter.stats.guard_retries
            assert not blocked.future.done()
            assert waiter.objects[1].version == 0
            submit(cluster.runtimes[2], 1, "set", (True,), client=(2, 0), cseq=1)
            assert blocked.future.result(10.0) is True
            assert waiter._pending == {}
            for runtime in cluster.runtimes.values():
                assert runtime.status()["primary_pending"] == 0
                assert runtime.objects[1].applied_log == [
                    [2, 0, 1, "set"], [waiter_id, 0, 1, "await_true"]]


class TestPendingAcrossShards:
    """Each shard's member numbers its broadcasts from 1, so a node's pending
    ordered writes are told apart by (shard, uid counter)."""

    def test_concurrent_writes_on_two_shards_each_return_their_own_result(self):
        with InProcessCluster(3, two_shard_table("broadcast"), seats=TWO_SEATS) as cluster:
            # Node 2 holds no seat: both writes are in flight together,
            # each its shard member's first broadcast.
            writer = cluster.runtimes[2]
            writes = [issue(writer, 1, "assign", (111,), client=(2, 0), cseq=1),
                      issue(writer, 2, "assign", (222,), client=(2, 1), cseq=1)]
            assert [write.future.result(5.0) for write in writes] == [111, 222]
            assert writer._pending == {}
            cluster.logs_agree(1, 1)
            cluster.logs_agree(2, 1)
            for runtime in cluster.runtimes.values():
                assert runtime.objects[1].instance.value == 111
                assert runtime.objects[2].instance.value == 222


class TestWriteArguments:
    """A write's arguments are validated and normalised before it is issued."""

    @pytest.mark.parametrize("policy", ["broadcast", "primary-update"])
    def test_unencodable_argument_fails_that_call_only(self, policy):
        with InProcessCluster(3, object_table(policy)) as cluster:
            # Node 0 is the seat and the primary: the bad write is local.
            local = cluster.runtimes[0]
            with pytest.raises(NetworkError, match="not wire-encodable"):
                submit(local, 1, "assign", ({1, 2},), client=(0, 0), cseq=1)
            assert local._pending == {} and local.objects[1].version == 0
            assert local.status()["seats"] == {"0": 1}
            assert submit(cluster.runtimes[1], 1, "assign", (5,), client=(1, 0), cseq=1) == 5
            assert submit(local, 1, "add", (1,), client=(0, 0), cseq=2) == 6
            cluster.converged(6)
            for runtime in cluster.runtimes.values():
                assert runtime.status()["primary_pending"] == 0

    def test_oversized_body_takes_no_seqno(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            seat = cluster.runtimes[0]
            with pytest.raises(NetworkError, match="wire limit"):
                submit(seat, 1, "assign", ("x" * 70_000,), client=(0, 0), cseq=1)
            assert seat._pending == {} and seat.status()["seats"] == {"0": 1}
            assert submit(cluster.runtimes[1], 1, "assign", (5,), client=(1, 0), cseq=1) == 5
            cluster.converged(5)

    @pytest.mark.parametrize("unit", ["x", '"', "\\", "\n", "\u00e9", "\U0001f600"])
    def test_a_body_that_fits_exactly_is_accepted_and_one_byte_more_is_not(self, unit):
        """As a string field a body costs its JSON text, quoted and escaped
        again; the last byte of room decides, for escaped and non-ASCII
        text too."""
        def framed(body):
            return len(json.dumps(json.dumps(body)))

        room = MAX_FRAME - ENVELOPE
        body = unit * 1000
        body += "a" * (room - framed(body))
        assert framed(body) == room
        assert wire_text(body) == json.dumps(body)
        with pytest.raises(NetworkError, match="wire limit"):
            wire_text(body + "a")

    @pytest.mark.parametrize("policy", ["broadcast", "primary-update"])
    def test_every_replica_applies_the_wire_form_of_the_arguments(self, policy):
        with InProcessCluster(3, object_table(policy)) as cluster:
            inner = [1, 2]
            value = ({1: "a"}, (3, 4), inner)
            wire_form = [{"1": "a"}, [3, 4], [1, 2]]
            # Issued on the seat/primary, which applies its own body.
            result = submit(cluster.runtimes[0], 1, "assign", (value,), client=(0, 0),
                            cseq=1)
            inner.append(99)  # the caller's object is not the replica's
            assert result == wire_form
            cluster.converged(wire_form)


class RecordingWire:
    """A transport stand-in: records what a runtime sends, delivers nothing."""

    supports_broadcast = True
    lossy = True

    def __init__(self, node_ids) -> None:
        self.node_ids = list(node_ids)
        self.sent = []
        self.on_message = None

    def send(self, msg, on_sent=None) -> None:
        self.sent.append(msg)

    def peer_alive(self, node_id) -> bool:
        return True

    def mark_dead(self, node_id) -> None:  # pragma: no cover - never called
        raise AssertionError("the failure detector must stay quiet here")

    def kinds(self, kind):
        return [msg for msg in list(self.sent) if msg.kind == kind]


#: Timers for a runtime on a :class:`RecordingWire`: heartbeats and beacons
#: far apart, a short gap delay.
QUIET = RealTimings(heartbeat_interval=30.0, dead_after=60.0,
                    retry_interval=30.0, sync_interval=30.0, gap_delay=0.01,
                    submit_deadline=60.0)


def data(seqno, origin=0):
    """The ``grp.data`` message the seat (node 0) sends for ``seqno``: the
    record as ``[seqno, origin, uid counter, body text, size]``."""
    body = wire_text({"type": "op", "obj_id": 1, "op": "add", "args": [seqno],
                      "kwargs": {}, "client": [origin, 0], "cseq": seqno})
    return Message(src=0, dst=None, kind="grp.data", size=1,
                   payload=[seqno, origin, seqno, body, len(body)])


def update(version):
    """The ``net.pupd`` message primary node 0 sends for ``version``, under
    fan-out id ``version``."""
    return Message(src=0, dst=1, kind="net.pupd", size=1, payload={
        "obj_id": 1, "op": "add", "args": [version], "kwargs": {},
        "client": [0, 0], "cseq": version, "version": version,
        "result": version, "fan": version})


@contextlib.contextmanager
def member_on_a_wire(policy="broadcast"):
    """Node 1 of a two-node cluster whose seat and primary is node 0, its
    loop running."""
    wire = RecordingWire([0, 1])
    node = RealNode(1, wire)
    member = RealRuntime(node, QUIET)
    member.set_seats({0: 0})
    member.install_objects(object_table(policy, primary=0))
    member.start()
    loop = start_loop(node)
    try:
        yield member, wire
    finally:
        member.stop()
        end_loop(node, loop)


class TestRealNodeTimers:
    """The group's timers on a real node: one heap that the node's loop
    serves, woken by the thread that arms an earlier timer."""

    def test_timers_fire_in_order_and_a_raising_one_stops_none(self, capsys):
        node = RealNode(0, RecordingWire([0]))
        loop = start_loop(node)
        fired = []

        def boom():
            raise RuntimeError("boom")

        try:
            with node.lock:  # the loop sleeps with no timer due
                node.set_timer(0.04, fired.append, "late")
                cancelled = node.set_timer(0.01, fired.append, "cancelled")
                node.set_timer(0.02, boom)
                node.set_timer(0.03, fired.append, "early")
                node.cancel_timer(cancelled)
            time.sleep(0.08)
            with node.lock:
                assert fired == ["early", "late"] and node._timers == {}
            assert capsys.readouterr().err.count("RuntimeError: boom") == 1
            with node.lock:
                node.set_timer(0.01, fired.append, "stopped")
                node.stop()
            time.sleep(0.03)
            assert fired == ["early", "late"]
        finally:
            end_loop(node, loop)


class TestOneOrderingCore:
    """Each real node process hosts the simulator's own broadcast group per
    shard; the node only moves its messages over the wire."""

    def test_seat_numbers_through_a_sequencer_log(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            for node_id, runtime in cluster.runtimes.items():
                submit(runtime, 1, "add", (1,), client=(node_id, 0), cseq=1)
            cluster.converged(3)
            log = cluster.runtimes[0].groups[0].sequencer.log
            assert isinstance(log, SequencerLog)
            assert sorted(log.entries()) == [1, 2, 3]
            assert [log.get(n).origin for n in (1, 2, 3)] == [0, 1, 2]
            for runtime in cluster.runtimes.values():
                engine = runtime.groups[0].member(runtime.node_id).engine
                assert isinstance(engine, OrderingEngine)
                assert engine.next_expected == 4 and engine.buffered_count == 0
            assert cluster.runtimes[1].groups[0].sequencer is None

    def test_the_seat_log_is_bounded_and_a_peer_serves_what_it_evicted(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "BroadcastParams",
                            functools.partial(BroadcastParams, history_size=4))
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            # Node 1 hears seqno 1 only; node 2 hears everything but 1.
            first = drop_first(("grp.data",))
            cluster.transports[1].drop_rx = (
                lambda msg: msg.kind in ("grp.data", "grp.sync") and not first(msg))
            cluster.transports[2].drop_rx = drop_first(("grp.data",))
            seat = cluster.runtimes[0]
            for cseq in range(1, 6):
                submit(seat, 1, "add", (1,), client=(0, 0), cseq=cseq)
            log = seat.groups[0].sequencer.log
            assert sorted(log.entries()) == [2, 3, 4, 5] and log.get(1) is None
            # The seat cannot serve 1, nor can its own member; node 1,
            # the designated peer of a later salvo, can.
            until(lambda: cluster.runtimes[2].objects[1].instance.value == 5, 10.0,
                  "node 2 to apply seqno 5")
            assert cluster.runtimes[1].groups[0].stats.peer_retransmissions == 1
            assert [entry[2] for entry in cluster.runtimes[2].objects[1].applied_log] \
                == [1, 2, 3, 4, 5]

    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=25, deadline=None)
    def test_any_arrival_order_applies_in_seqno_order(self, order):
        with member_on_a_wire() as (member, wire):
            for seqno in order:
                member.node.dispatch(data(seqno))
            applied, status = member.objects[1].applied_log, member.status()
        assert applied == [[0, 0, seqno, "add"] for seqno in range(1, 7)]
        assert status["shards"] == {"0": {"next_expected": 7, "holdback": 0,
                                          "sequencer": 0}}

    def test_a_stalled_gap_is_asked_of_the_seat_once_then_filled(self):
        with member_on_a_wire() as (member, wire):
            member.node.dispatch(data(2))
            member.node.dispatch(data(3))
            assert member.objects[1].applied_log == []
            assert member.status()["shards"]["0"]["holdback"] == 2
            time.sleep(4 * QUIET.gap_delay)
            [request] = wire.kinds("grp.retransmit_req")
            assert request.dst == 0
            assert request.headers == {"seqno": 1, "salvo": 1}
            member.node.dispatch(data(1))
            assert [entry[2] for entry in member.objects[1].applied_log] == [1, 2, 3]
            time.sleep(4 * QUIET.gap_delay)
            assert len(wire.kinds("grp.retransmit_req")) == 1

    def test_a_sync_beacon_reveals_a_lost_tail(self):
        with member_on_a_wire() as (member, wire):
            member.node.dispatch(data(1))
            member.node.dispatch(Message(src=0, dst=None, kind="grp.sync", size=1,
                                         headers={"seqno": 3}))
            time.sleep(4 * QUIET.gap_delay)
            requests = wire.kinds("grp.retransmit_req")
            assert [(m.dst, m.headers["seqno"]) for m in requests] == [(0, 2), (0, 3)]

    def test_primary_updates_are_held_back_by_version(self):
        with member_on_a_wire("primary-update") as (member, wire):
            obj = member.objects[1]
            member.node.dispatch(update(3))
            member.node.dispatch(update(2))
            assert obj.version == 0 and obj.updates.buffered_count == 2
            assert member.status()["pending_updates"] == 2
            assert [m.payload["have"] for m in wire.kinds("net.pgap")] == [0, 0]
            member.node.dispatch(update(1))
            assert obj.version == 3 and obj.instance.value == 6
            assert [entry[2] for entry in obj.applied_log] == [1, 2, 3]
            assert member.status()["pending_updates"] == 0
            # A late duplicate is re-acknowledged, not applied again.
            member.node.dispatch(update(2))
            assert obj.version == 3
            acks = [m.payload for m in wire.kinds("net.pupdack")]
            assert acks == [1, 2, 3, 2]


class TestClientThreads:
    """Reads and writes on the client threads, each node's loop beside them."""

    def test_reads_are_monotone_and_see_the_clients_own_writes(self):
        rounds = 150
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            def client(facade, proc):
                last = 0
                for _ in range(rounds):
                    written = facade.invoke(proc, cluster.handle, "add", (1,))
                    for _ in range(3):
                        seen = facade.invoke(proc, cluster.handle, "read")
                        # Its own acknowledged write is visible, and the
                        # counter never runs backwards for one client.
                        assert seen >= written and seen >= last
                        last = seen

            cluster.run_clients(client)
            cluster.converged(6 * rounds)
            for runtime in cluster.runtimes.values():
                collected = runtime.collect()
                assert collected["stats"]["local_reads"] == 2 * 3 * rounds
                assert collected["stats"]["ordered_writes"] == 2 * rounds

    def test_a_read_never_sees_half_a_write(self):
        # More threads than cores and a short switch interval: without the
        # object lock a reader lands between the two halves of ``bump``.
        stop = threading.Event()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InProcessCluster(3, object_table("broadcast", spec=Pair)) as cluster:
                def client(facade, proc):
                    if proc.client_id == 0:
                        for _ in range(100):
                            facade.invoke(proc, cluster.handle, "bump")
                        stop.set()
                        return
                    while not stop.is_set():
                        a, b = facade.invoke(proc, cluster.handle, "snapshot")
                        assert a == b, f"torn read: a={a} b={b}"

                try:
                    cluster.run_clients(client)
                finally:
                    stop.set()
                cluster.converged_state([300, 300])
        finally:
            sys.setswitchinterval(switch_interval)

    @pytest.mark.parametrize("policy", ["broadcast", "primary-update"])
    def test_writes_on_two_shards_return_each_clients_own_results(self, policy):
        # Two clients per node, one writing shard 0 while the other writes
        # shard 1, on a short switch interval: every result a client gets
        # back must be its own write's.
        rounds = 30
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InProcessCluster(3, two_shard_table(policy), seats=TWO_SEATS) as cluster:
                def client(facade, proc):
                    for n in range(rounds):
                        handle = cluster.handles[(n + proc.client_id) % 2]
                        mine = 10_000 * proc.node_id + 1_000 * proc.client_id + n
                        got = facade.invoke(proc, handle, "assign", (mine,))
                        assert got == mine, f"client {proc.node_id}.{proc.client_id} " \
                                            f"wrote {mine} and got {got}"

                cluster.run_clients(client)
                for obj_id in (1, 2):
                    cluster.logs_agree(obj_id, 3 * rounds)
                for runtime in cluster.runtimes.values():
                    status = runtime.status()
                    assert status["pending_ops"] == 0 and status["primary_pending"] == 0
        finally:
            sys.setswitchinterval(switch_interval)

    @pytest.mark.parametrize("policy", ["broadcast", "primary-update"])
    def test_a_write_is_never_handed_to_the_loop(self, policy, monkeypatch):
        """A client thread issues its own write, and arms only the protocol's
        own timeouts: it may wake a sleeping loop to re-time its sleep, but
        it hands the loop no step to run (a zero-delay timer would be one)."""
        caller = threading.current_thread()
        issued_on, armed = [], []
        for name in ("_issue_ordered_op", "_issue_primary"):
            def recorded(runtime, write, _issue=getattr(RealRuntime, name)):
                issued_on.append(threading.current_thread())
                return _issue(runtime, write)

            monkeypatch.setattr(RealRuntime, name, recorded)
        set_timer = RealNode.set_timer

        def recorded_timer(node, delay, callback, *args):
            if threading.current_thread() is caller:
                armed.append((delay, callback))
            return set_timer(node, delay, callback, *args)

        monkeypatch.setattr(RealNode, "set_timer", recorded_timer)
        with InProcessCluster(3, two_shard_table(policy), seats=TWO_SEATS) as cluster:
            for node_id, facade in cluster.facades.items():
                proc = ClientProc(node_id, 0)
                for handle in cluster.handles:
                    assert facade.invoke(proc, handle, "add", (1,)) >= 1
            for obj_id in (1, 2):
                cluster.logs_agree(obj_id, 3)
        assert len(issued_on) == 6 and set(issued_on) == {caller}
        handed = [(delay, callback) for delay, callback in armed if delay <= 0.0]
        assert armed and handed == []

    def test_submit_deadline_raises_network_error_on_the_client_thread(self):
        impatient = RealTimings(heartbeat_interval=0.03, dead_after=5.0,
                                retry_interval=0.03, sync_interval=0.03,
                                gap_delay=0.02, submit_deadline=0.2)
        with InProcessCluster(3, object_table("broadcast"), timings=impatient) as cluster:
            cluster.transports[1].drop_tx = (
                lambda msg, dst: msg.kind == "grp.request")
            proc = ClientProc(1, 0)
            with pytest.raises(NetworkError, match="did not complete"):
                cluster.facades[1].invoke(proc, cluster.handle, "add", (1,))
            assert cluster.runtimes[1].status()["pending_ops"] == 0
            assert cluster.transports[1].stats.send_drops >= 2

    def test_submit_and_invoke_observe_the_same_result(self):
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            runtime, facade = cluster.runtimes[1], cluster.facades[1]
            proc = ClientProc(1, 0)
            assert facade.invoke(proc, cluster.handle, "assign", (7,)) == 7
            assert submit(runtime, 1, "assign", (7,), client=(1, 1), cseq=1) == 7
            assert facade.invoke(proc, cluster.handle, "add", (2,)) == 9
            assert submit(runtime, 1, "add", (2,), client=(1, 1), cseq=2) == 11
            assert facade.invoke(proc, cluster.handle, "read") == 11
            assert submit(runtime, 1, "read") == 11

    def test_real_send_path_never_estimates_a_payload(self, monkeypatch):
        calls = []

        def estimate_size(value):
            calls.append(value)
            return 1

        monkeypatch.setattr(message_module, "estimate_size", estimate_size)
        monkeypatch.setattr(group_module, "estimate_size", estimate_size)
        with InProcessCluster(3, object_table("broadcast")) as cluster:
            proc = ClientProc(1, 0)
            assert cluster.facades[1].invoke(proc, cluster.handle, "add", (1,)) == 1
            cluster.converged(1)
            sent = cluster.transports[1].stats
            assert sent.datagrams_sent > 0 and sent.datagrams_received > 0
        assert calls == []


def test_no_net_module_imports_asyncio():
    """The node owns its loop: no module of ``net/`` imports asyncio or hands
    a callback to another thread's loop, and the engine keeps no task, lock,
    event, sleep or timer of its own."""
    net = Path(runtime_module.__file__).parent
    found = []
    for path in sorted(net.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] == "asyncio" or name == "call_soon_threadsafe"]
    assert found == []
    engine = {node.attr for node in ast.walk(ast.parse(Path(runtime_module.__file__).read_text()))
              if isinstance(node, ast.Attribute)}
    assert not engine & {"ensure_future", "create_task", "Lock", "Event", "wait_for",
                         "sleep", "call_soon", "call_later", "call_at"}
