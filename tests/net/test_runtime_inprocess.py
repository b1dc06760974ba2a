"""In-process protocol-engine tests: several RealRuntimes, one event loop.

These run the real protocol engine over real UDP sockets without spawning
node processes, which makes loss injection (the transport's ``drop_tx`` /
``drop_rx`` hooks) and direct state inspection possible.  They are the
real-socket analogues of the simulator's NIC ``drop_filter`` tests: every
recovery mechanism — writer retry with sequencer dedupe, gap requests to
the seat or a peer, sequencer election, primary retransmit to unacked
replicas, heartbeat-driven takeover — must close the holes that injected
loss opens.  Ordered writes travel as the simulator's own ``grp.*`` kinds.

The second half runs the same cluster with its loop on a background thread
and real client threads on :class:`~repro.net.rts_adapter.RealRtsFacade`, the
way a node process does: reads stay on the client thread, writes cross to
the loop once and live in one pending-write record.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import sys
import threading
import time

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


class InProcessCluster:
    """N transports + runtimes wired together inside the current loop."""

    def __init__(self, num_nodes: int, table, seats=None,
                 timings: RealTimings = FAST) -> None:
        self.num_nodes = num_nodes
        self.table = table
        self.seats = seats or {0: 0}
        self.timings = timings
        self.transports = {}
        self.runtimes = {}

    async def __aenter__(self) -> "InProcessCluster":
        peers = {}
        for node_id in range(self.num_nodes):
            transport = UdpTransport(node_id)
            peers[node_id] = ("127.0.0.1", await transport.open())
            self.transports[node_id] = transport
        for node_id, transport in self.transports.items():
            transport.set_peers(peers)
            runtime = RealRuntime(node_id, transport, self.timings)
            runtime.set_seats(self.seats)
            runtime.install_objects(self.table)
            await runtime.start()
            self.runtimes[node_id] = runtime
        return self

    async def __aexit__(self, *exc) -> None:
        for runtime in self.runtimes.values():
            await runtime.stop()
        for transport in self.transports.values():
            transport.close()

    async def converged(self, value: int, timeout: float = 10.0) -> None:
        """Wait until every replica of the cell reads ``value``."""
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            states = [runtime.objects[1].instance.value
                      for runtime in self.runtimes.values()]
            if all(state == value for state in states):
                return
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError(
                    f"replicas never converged to {value}: {states}")
            await asyncio.sleep(0.02)

    async def converged_state(self, state, timeout: float = 10.0) -> None:
        """Wait until every replica's ``snapshot`` reads ``state``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            states = [runtime.objects[1].instance.snapshot()
                      for runtime in self.runtimes.values()]
            if all(found == state for found in states):
                return
            if loop.time() > deadline:
                raise AssertionError(
                    f"replicas never converged to {state}: {states}")
            await asyncio.sleep(0.02)


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
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                for node_id, runtime in cluster.runtimes.items():
                    await runtime.submit(1, "add", (1,),
                                         client=(node_id, 0), cseq=1)
                await cluster.converged(3)

        asyncio.run(run())

    def test_lost_data_broadcast_recovered_via_gap_request(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                # Node 2 misses the first data broadcast; the next in-order
                # delivery (or a sync) reveals the gap and the seat's
                # history refills it.
                cluster.transports[2].drop_rx = drop_first(("grp.data",))
                for cseq in (1, 2):
                    await cluster.runtimes[1].submit(1, "add", (1,),
                                                     client=(1, 0), cseq=cseq)
                await cluster.converged(2)
                assert cluster.transports[2].stats.recv_drops == 1
                assert cluster.transports[2].stats.by_kind["grp.retransmit_req"] >= 1

        asyncio.run(run())

    def test_lost_request_retried_and_deduped_at_seat(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                # The writer's first two ordering requests vanish; its
                # member re-sends until the seat numbers one.
                cluster.transports[1].drop_tx = drop_first(("grp.request",), 2)
                await cluster.runtimes[1].submit(1, "add", (1,),
                                                 client=(1, 0), cseq=1)
                await cluster.converged(1)
                assert cluster.transports[1].stats.by_kind["grp.request"] == 3

        asyncio.run(run())

    def test_retry_of_a_sequenced_request_is_deduped_at_the_seat(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                # The writer never hears its data (nor a sync), so it
                # re-sends a request the seat has already numbered: the
                # seat's uid table answers with the same record.
                first = drop_first(("grp.data",))
                cluster.transports[1].drop_rx = (
                    lambda msg: msg.kind == "grp.sync" or first(msg))
                await cluster.runtimes[1].submit(1, "add", (1,),
                                                 client=(1, 0), cseq=1)
                await cluster.converged(1)
                seat = cluster.runtimes[0].groups[0].sequencer
                assert seat.duplicates_suppressed == 1 and seat.log.next_seq == 2
                for runtime in cluster.runtimes.values():
                    assert runtime.objects[1].applied_log == [[1, 0, 1, "add"]]
                    assert runtime.collect()["stats"]["elections"] == 0

        asyncio.run(run())

    def test_a_survivors_write_completes_after_the_seat_dies(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                await cluster.runtimes[1].submit(1, "add", (1,), client=(1, 0), cseq=1)
                await cluster.converged(1)
                # The seat of shard 0 goes silent, as a SIGKILL would leave it.
                await cluster.runtimes.pop(0).stop()
                cluster.transports.pop(0).close()
                result = await asyncio.wait_for(
                    cluster.runtimes[2].submit(1, "add", (1,), client=(2, 0), cseq=1),
                    timeout=15.0)
                assert result == 2
                await cluster.converged(2)
                groups = [runtime.groups[0] for runtime in cluster.runtimes.values()]
                # Both survivors know seqno 1; the tie goes to the lowest id.
                assert [group.sequencer_node_id for group in groups] == [1, 1]
                assert groups[0].sequencer is not None and groups[1].sequencer is None
                assert sum(group.stats.elections for group in groups) >= 1

        asyncio.run(run())

    def test_a_lost_election_announcement_is_settled_by_another_election(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                await cluster.runtimes[1].submit(1, "add", (1,), client=(1, 0), cseq=1)
                await cluster.converged(1)
                # The seat of shard 0 dies and node 2 misses the winner's
                # announcement while node 1 keeps writing through the winner:
                # node 2 must not go on following the dead seat.
                cluster.transports[2].drop_rx = drop_first(("grp.coordinator",))
                await cluster.runtimes.pop(0).stop()
                cluster.transports.pop(0).close()
                stop, written = asyncio.Event(), [1]

                async def keep_writing():
                    while not stop.is_set():
                        written[0] += 1
                        await cluster.runtimes[1].submit(1, "add", (1,), client=(1, 0),
                                                         cseq=written[0])
                        await asyncio.sleep(0.005)

                writer = asyncio.ensure_future(keep_writing())
                try:
                    await asyncio.wait_for(
                        cluster.runtimes[2].submit(1, "add", (1,), client=(2, 0), cseq=1),
                        timeout=5.0)
                finally:
                    stop.set()
                    await writer
                await cluster.converged(written[0] + 1)
                survivors = list(cluster.runtimes.values())
                assert survivors[0].objects[1].applied_log == survivors[1].objects[1].applied_log
                assert [rt.groups[0].sequencer_node_id for rt in survivors] == [1, 1]
                assert cluster.transports[2].stats.recv_drops == 1

        asyncio.run(run())

    def test_a_deposed_seat_numbers_nothing_the_survivors_apply(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                await cluster.runtimes[1].submit(1, "add", (1,), client=(1, 0), cseq=1)
                await cluster.converged(1)
                # The seat of shard 0 is cut off for longer than dead_after
                # (a partition, or a paused process).  The survivors elect
                # node 1, which numbers from seqno 2; so does the old seat,
                # for its own writes, and it numbers more of them.
                cut, deposed = cluster.transports[0], cluster.runtimes[0]
                cut.drop_tx, cut.drop_rx = (lambda msg, dst: True), (lambda msg: True)
                for cseq in (2, 3):
                    await asyncio.wait_for(
                        cluster.runtimes[1].submit(1, "add", (1,), client=(1, 0), cseq=cseq),
                        timeout=10.0)
                for cseq in range(1, 5):
                    await deposed.submit(1, "add", (10,), client=(0, 0), cseq=cseq)
                await asyncio.sleep(2 * FAST.dead_after)
                cut.drop_tx = cut.drop_rx = None
                group = deposed.groups[0]
                assert group.sequencer_node_id == 0 and group.sequencer.log.next_seq == 6
                # Back, it hears numbers from another node and calls an
                # election; a follower of the newer seat wins it, not the
                # node that knows the highest seqno: the old seat steps down.
                for node_id in (1, 2):
                    await asyncio.wait_for(
                        cluster.runtimes[node_id].submit(1, "add", (1,), client=(node_id, 0),
                                                         cseq=9),
                        timeout=10.0)

                async def stepped_down():
                    while group.sequencer is not None:
                        await asyncio.sleep(FAST.retry_interval)

                await asyncio.wait_for(stepped_down(), timeout=10.0)
                assert group.sequencer_node_id == 1 and group.epoch >= 2
                await cluster.runtimes.pop(0).stop()
                await cluster.converged(5)
                logs = [rt.objects[1].applied_log for rt in cluster.runtimes.values()]
                assert logs[0] == logs[1]
                assert [entry[0] for entry in logs[0]] == [1, 1, 1, 1, 2]

        asyncio.run(run())


class TestPrimaryPath:
    def test_remote_writes_converge(self):
        async def run():
            table = object_table("primary-update", primary=0)
            async with InProcessCluster(3, table) as cluster:
                for node_id, runtime in cluster.runtimes.items():
                    await runtime.submit(1, "add", (1,),
                                         client=(node_id, 0), cseq=1)
                await cluster.converged(3)

        asyncio.run(run())

    def test_lost_update_broadcast_retransmitted(self):
        async def run():
            table = object_table("primary-update", primary=0)
            async with InProcessCluster(3, table) as cluster:
                # Replica 2 misses the first propagated update; the primary
                # keeps retransmitting to unacked replicas until ack-all.
                cluster.transports[2].drop_rx = drop_first(("net.pupd",))
                await cluster.runtimes[1].submit(1, "add", (1,),
                                                 client=(1, 0), cseq=1)
                await cluster.converged(1)

        asyncio.run(run())

    def test_lost_ack_resend_is_exactly_once(self):
        async def run():
            table = object_table("primary-update", primary=0)
            async with InProcessCluster(3, table) as cluster:
                # The result ack back to the writer vanishes; the writer
                # re-sends the write and the primary's wid table answers
                # from memory instead of applying twice.
                cluster.transports[0].drop_tx = drop_first(("net.pack",))
                await cluster.runtimes[1].submit(1, "add", (1,),
                                                 client=(1, 0), cseq=1)
                await cluster.converged(1)
                assert cluster.runtimes[0].objects[1].instance.value == 1

        asyncio.run(run())


    def test_a_stale_duplicate_write_is_not_applied(self):
        async def run():
            table = object_table("primary-update", primary=0)
            async with InProcessCluster(3, table) as cluster:
                requests = []  # every net.pwrite node 1 sends; nothing dropped
                cluster.transports[1].drop_tx = (
                    lambda msg, dst: msg.kind == "net.pwrite" and requests.append(msg))
                writer, primary = cluster.runtimes[1], cluster.runtimes[0]
                for cseq in (1, 2):
                    await writer.submit(1, "add", (1,), client=(1, 0), cseq=cseq)
                await cluster.converged(2)
                deduplicated = primary.stats.deduplicated_writes
                updates = cluster.transports[0].stats.by_kind["net.pupd"]
                # The first write's request arrives again after the second
                # applied: the client has moved on, so it is not applied.
                primary.node.dispatch(requests[0])
                await asyncio.sleep(3 * FAST.retry_interval)
                assert primary.stats.deduplicated_writes == deduplicated + 1
                assert cluster.transports[0].stats.by_kind["net.pupd"] == updates
                await cluster.converged(2)

        asyncio.run(run())

    def test_the_primary_tables_are_bounded(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "BroadcastParams",
                            functools.partial(BroadcastParams, history_size=4))

        async def run():
            table = object_table("primary-update", primary=2)
            async with InProcessCluster(3, table) as cluster:
                for cseq in range(1, 5):
                    for node, client in ((0, 0), (1, 0), (1, 1)):
                        await cluster.runtimes[node].submit(
                            1, "add", (1,), client=(node, client), cseq=cseq)
                await cluster.converged(12)
                assert len(cluster.runtimes[2].objects[1].log) <= 4
                for runtime in cluster.runtimes.values():
                    assert len(runtime.objects[1].applied) == 3
                # The takeover record carries one entry per client too, and
                # of the applied log only the seat log's window.
                proposals = []
                survivor = cluster.runtimes[1]
                install = survivor._ordered_kinds["switch"]
                survivor._ordered_kinds["switch"] = (
                    lambda body: proposals.append(body) or install(body))
                await cluster.runtimes.pop(2).stop()
                cluster.transports.pop(2).close()
                assert await asyncio.wait_for(
                    survivor.submit(1, "add", (1,), client=(1, 0), cseq=5), 15.0) == 13
                records = [SwitchRecord(*body["record"]) for body in proposals]
                assert [len(record.snapshot[2]) for record in records] == [3]
                assert [len(body["log"]) for body in proposals] == [4]
                await cluster.converged(13)
                logs = [runtime.objects[1].applied_log
                        for runtime in cluster.runtimes.values()]
                assert len(logs[0]) == 13 and all(log == logs[0] for log in logs)

        asyncio.run(run())


class TestTakeover:
    def test_surviving_node_adopts_dead_primary(self):
        async def run():
            table = object_table("primary-update", primary=2)
            async with InProcessCluster(3, table) as cluster:
                await cluster.runtimes[1].submit(1, "add", (1,),
                                                 client=(1, 0), cseq=1)
                await cluster.converged(1)
                # Node 2 (the primary) goes silent: stop its engine and
                # close its socket, as a SIGKILL would.
                await cluster.runtimes[2].stop()
                cluster.transports[2].close()
                dead = cluster.runtimes.pop(2)
                cluster.transports.pop(2)
                # A write through the dead primary must block until the
                # lowest-id survivor takes the object over, then commit.
                result = await asyncio.wait_for(
                    cluster.runtimes[1].submit(1, "add", (1,),
                                               client=(1, 0), cseq=2),
                    timeout=15.0)
                assert result == 2
                await cluster.converged(2)
                for runtime in cluster.runtimes.values():
                    assert runtime.objects[1].primary == 0
                assert dead is not None

        asyncio.run(run())

    def test_a_proposal_lost_with_its_proposer_is_made_again(self):
        """The lowest live node proposes a takeover and dies before it is
        sequenced: the next lowest proposes again for the seat that died
        first, not only for the proposer's own."""
        async def run():
            table = object_table("primary-update", primary=3)
            async with InProcessCluster(4, table, seats={0: 1}) as cluster:
                await cluster.runtimes[2].submit(1, "add", (1,),
                                                 client=(2, 0), cseq=1)
                await cluster.converged(1)
                # Node 0's broadcasts never reach the seat (node 1).
                cluster.transports[0].drop_tx = (
                    lambda msg, dst: msg.kind == "grp.request")
                await cluster.runtimes.pop(3).stop()
                cluster.transports.pop(3).close()
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while not (cluster.runtimes[0]._pending and not any(
                        cluster.transports[node].peer_alive(3) for node in (1, 2))):
                    assert loop.time() < deadline, "node 0 never proposed"
                    await asyncio.sleep(0.01)
                await cluster.runtimes.pop(0).stop()
                cluster.transports.pop(0).close()
                result = await asyncio.wait_for(
                    cluster.runtimes[2].submit(1, "add", (1,),
                                               client=(2, 0), cseq=2),
                    timeout=15.0)
                assert result == 2
                await cluster.converged(2)
                for runtime in cluster.runtimes.values():
                    assert runtime.objects[1].primary == 1
                    assert runtime.stats.takeover_failures == 0

        asyncio.run(run())

    def test_a_switch_to_a_dead_seat_is_taken_over_again(self):
        """Node 1 delivers node 0's takeover only after node 0 died: the
        delivered switch names a dead seat, so node 1 proposes again."""
        async def run():
            table = object_table("primary-update", primary=3)
            async with InProcessCluster(4, table, seats={0: 2}) as cluster:
                await cluster.runtimes[1].submit(1, "add", (1,),
                                                 client=(1, 0), cseq=1)
                await cluster.converged(1)
                deaf = {"on": True}  # node 1 hears nothing node 0 broadcast
                cluster.transports[1].drop_rx = lambda msg: deaf["on"] and (
                    msg.kind in ("grp.data", "grp.retransmit") and msg.payload[1] == 0)
                await cluster.runtimes.pop(3).stop()
                cluster.transports.pop(3).close()
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while cluster.runtimes[2].objects[1].primary != 0:
                    assert loop.time() < deadline, "node 0 never took over"
                    await asyncio.sleep(0.01)
                await cluster.runtimes.pop(0).stop()
                cluster.transports.pop(0).close()
                while not cluster.runtimes[1]._pending:
                    assert loop.time() < deadline, "node 1 never proposed"
                    await asyncio.sleep(0.01)
                deaf["on"] = False
                result = await asyncio.wait_for(
                    cluster.runtimes[2].submit(1, "add", (1,),
                                               client=(2, 0), cseq=1),
                    timeout=15.0)
                assert result == 2
                await cluster.converged(2)
                for runtime in cluster.runtimes.values():
                    assert runtime.objects[1].primary == 1
                    assert runtime.objects[1].epoch == 2

        asyncio.run(run())


class TestWriteRecord:
    """The pending-write record behind ``submit()`` and ``invoke()``."""

    def test_dropped_request_resent_after_retry_interval_applied_once(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                writer = cluster.runtimes[1]
                cluster.transports[1].drop_tx = drop_first(("grp.request",))
                started = time.monotonic()
                result = await writer.submit(1, "add", (1,), client=(1, 0), cseq=1)
                assert time.monotonic() - started >= FAST.retry_interval
                assert result == 1
                assert cluster.transports[1].stats.by_kind["grp.request"] == 2
                await cluster.converged(1)
                for runtime in cluster.runtimes.values():
                    assert runtime.objects[1].applied_log == [[1, 0, 1, "add"]]

        asyncio.run(run())

    def test_resolving_a_write_cancels_its_timer(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                writer = cluster.runtimes[1]
                member = writer.groups[0].member(1)
                record = writer.start_write(writer.objects[1], "add", (1,), None, (1, 0), 1)
                assert list(writer._pending.values()) == [record]
                [send] = member._pending_sends.values()
                assert send.uid.counter == record.key and send.retry_timer in writer.node._timers
                assert await asyncio.wrap_future(record.future) == 1
                assert member._pending_sends == {} and writer.node._timers == {}
                assert writer._pending == {}
                assert writer.status()["pending_ops"] == 0

        asyncio.run(run())

    def test_guard_retry_reissues_after_gap_delay_under_a_fresh_uid(self):
        async def run():
            table = object_table("broadcast", spec=BoolObject)
            async with InProcessCluster(3, table) as cluster:
                waiter = cluster.runtimes[1]
                blocked = asyncio.ensure_future(
                    waiter.submit(1, "await_true", client=(1, 0), cseq=1))
                uids = set()
                while waiter.stats.guard_retries < 2:
                    await asyncio.sleep(FAST.gap_delay / 4)
                    uids.update(waiter._pending)  # stays pending between issues
                    assert len(waiter._pending) == 1
                assert len(uids) >= 2
                assert waiter.stats.ordered_writes >= waiter.stats.guard_retries
                assert not blocked.done()
                await cluster.runtimes[2].submit(1, "set", (True,), client=(2, 0), cseq=1)
                assert await asyncio.wait_for(blocked, timeout=10.0) is True
                assert waiter._pending == {}
                # A guard RETRY leaves no trace in the applied log.
                assert waiter.objects[1].applied_log == [[2, 0, 1, "set"],
                                                         [1, 0, 1, "await_true"]]

        asyncio.run(run())

    def test_stop_fails_pending_writes(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                writer = cluster.runtimes[1]
                cluster.transports[1].drop_tx = lambda msg, dst: msg.kind == "grp.request"
                record = writer.start_write(writer.objects[1], "add", (1,), None, (1, 0), 1)
                await asyncio.sleep(2 * FAST.retry_interval)
                await writer.stop()
                assert writer._pending == {} and writer.node._timers == {}
                with pytest.raises(NetworkError):
                    record.future.result(0)

        asyncio.run(run())

    def test_cancelling_an_in_loop_await_ends_the_write(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                writer = cluster.runtimes[1]
                cluster.transports[1].drop_tx = lambda msg, dst: msg.kind == "grp.request"
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        writer.submit(1, "add", (1,), client=(1, 0), cseq=1),
                        timeout=FAST.retry_interval / 2)
                assert writer._pending == {}
                sent = cluster.transports[1].stats.by_kind["grp.request"]
                await asyncio.sleep(3 * FAST.retry_interval)
                assert cluster.transports[1].stats.by_kind["grp.request"] == sent

        asyncio.run(run())

    def test_dropped_primary_request_resent_and_applied_once(self):
        async def run():
            table = object_table("primary-update", primary=0)
            async with InProcessCluster(3, table) as cluster:
                writer = cluster.runtimes[1]
                cluster.transports[1].drop_tx = drop_first(("net.pwrite",))
                started = time.monotonic()
                record = writer.start_write(writer.objects[1], "add", (1,), None, (1, 0), 1)
                assert list(writer._pending) == [("1.0", 1)]
                assert await asyncio.wrap_future(record.future) == 1
                assert time.monotonic() - started >= FAST.retry_interval
                assert cluster.transports[1].stats.by_kind["net.pwrite"] == 2
                assert record.handle.cancelled() and writer._pending == {}
                await cluster.converged(1)
                for runtime in cluster.runtimes.values():
                    assert runtime.objects[1].applied_log == [[1, 0, 1, "add"]]
                    assert runtime.objects[1].version == 1

        asyncio.run(run())

    def test_a_write_applying_on_its_primary_outlives_the_submit_deadline(self):
        async def run():
            timings = dataclasses.replace(FAST, submit_deadline=0.2)
            table = object_table("primary-update", primary=0)
            async with InProcessCluster(3, table, timings=timings) as cluster:
                # Replica 2 misses the update for longer than the deadline:
                # the primary's own write is already applied and re-sends
                # until every live peer has acknowledged; no sweep ends it.
                cluster.transports[2].drop_rx = drop_first(("net.pupd",), 12)
                primary = cluster.runtimes[0]
                result = await asyncio.wait_for(
                    primary.submit(1, "add", (1,), client=(0, 0), cseq=1), timeout=10.0)
                assert result == 1 and cluster.transports[2].stats.recv_drops == 12
                await cluster.converged(1)
                assert primary.status()["primary_pending"] == 0

        asyncio.run(run())

    @pytest.mark.parametrize("waiter_id", [0, 1], ids=["on-the-primary", "remote"])
    def test_primary_guard_retry_reissues_under_the_same_wid(self, waiter_id):
        async def run():
            table = object_table("primary-update", primary=0, spec=BoolObject)
            async with InProcessCluster(3, table) as cluster:
                waiter = cluster.runtimes[waiter_id]
                blocked = asyncio.ensure_future(
                    waiter.submit(1, "await_true", client=(waiter_id, 0), cseq=1))
                while waiter.stats.guard_retries < 2:
                    await asyncio.sleep(FAST.gap_delay / 4)
                    assert list(waiter._pending) == [(f"{waiter_id}.0", 1)]
                # Counted per issue, so once per guard RETRY already seen.
                assert waiter.stats.primary_writes >= waiter.stats.guard_retries
                assert not blocked.done()
                assert waiter.objects[1].version == 0
                await cluster.runtimes[2].submit(1, "set", (True,), client=(2, 0), cseq=1)
                assert await asyncio.wait_for(blocked, timeout=10.0) is True
                assert waiter._pending == {}
                for runtime in cluster.runtimes.values():
                    assert runtime.status()["primary_pending"] == 0
                    assert runtime.objects[1].applied_log == [
                        [2, 0, 1, "set"], [waiter_id, 0, 1, "await_true"]]

        asyncio.run(run())


class TestWriteArguments:
    """A write's arguments are validated and normalised before it is issued."""

    @pytest.mark.parametrize("policy", ["broadcast", "primary-update"])
    def test_unencodable_argument_fails_that_call_only(self, policy):
        async def run():
            async with InProcessCluster(3, object_table(policy)) as cluster:
                # Node 0 is the seat and the primary: the bad write is local.
                local = cluster.runtimes[0]
                with pytest.raises(NetworkError, match="not wire-encodable"):
                    await local.submit(1, "assign", ({1, 2},), client=(0, 0), cseq=1)
                assert local._pending == {} and local.objects[1].version == 0
                assert local.status()["seats"] == {"0": 1}
                assert await cluster.runtimes[1].submit(
                    1, "assign", (5,), client=(1, 0), cseq=1) == 5
                assert await local.submit(1, "add", (1,), client=(0, 0), cseq=2) == 6
                await cluster.converged(6)
                for runtime in cluster.runtimes.values():
                    assert runtime.status()["primary_pending"] == 0

        asyncio.run(run())

    def test_oversized_body_takes_no_seqno(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                seat = cluster.runtimes[0]
                with pytest.raises(NetworkError, match="wire limit"):
                    await seat.submit(1, "assign", ("x" * 70_000,), client=(0, 0), cseq=1)
                assert seat._pending == {} and seat.status()["seats"] == {"0": 1}
                assert await cluster.runtimes[1].submit(
                    1, "assign", (5,), client=(1, 0), cseq=1) == 5
                await cluster.converged(5)

        asyncio.run(run())

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
        async def run():
            async with InProcessCluster(3, object_table(policy)) as cluster:
                inner = [1, 2]
                value = ({1: "a"}, (3, 4), inner)
                wire_form = [{"1": "a"}, [3, 4], [1, 2]]
                # Issued on the seat/primary, which applies its own body.
                result = await cluster.runtimes[0].submit(
                    1, "assign", (value,), client=(0, 0), cseq=1)
                inner.append(99)  # the caller's object is not the replica's
                assert result == wire_form
                await cluster.converged(wire_form)

        asyncio.run(run())


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
        return [msg for msg in self.sent if msg.kind == kind]


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


async def member_on_a_wire(policy="broadcast"):
    """Node 1 of a two-node cluster whose seat and primary is node 0."""
    wire = RecordingWire([0, 1])
    member = RealRuntime(1, wire, QUIET)
    member.set_seats({0: 0})
    member.install_objects(object_table(policy, primary=0))
    await member.start()
    return member, wire


class TestRealNodeTimers:
    """The group's timers on a real node: one heap behind one loop callback."""

    def test_timers_fire_in_order_and_a_raising_one_stops_none(self):
        async def run():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, context: errors.append(context))
            node = RealNode(0, RecordingWire([0]))
            node.loop = loop
            fired = []

            def boom():
                raise RuntimeError("boom")

            node.set_timer(0.04, fired.append, "late")
            cancelled = node.set_timer(0.01, fired.append, "cancelled")
            node.set_timer(0.02, boom)
            node.set_timer(0.03, fired.append, "early")
            node.cancel_timer(cancelled)
            await asyncio.sleep(0.08)
            assert fired == ["early", "late"] and node._timers == {}
            assert [type(c["exception"]) for c in errors] == [RuntimeError]
            node.set_timer(0.01, fired.append, "stopped")
            node.stop()
            await asyncio.sleep(0.03)
            assert fired == ["early", "late"]

        asyncio.run(run())


class TestOneOrderingCore:
    """Each real node process hosts the simulator's own broadcast group per
    shard; the node only moves its messages over the wire."""

    def test_seat_numbers_through_a_sequencer_log(self):
        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                for node_id, runtime in cluster.runtimes.items():
                    await runtime.submit(1, "add", (1,), client=(node_id, 0), cseq=1)
                await cluster.converged(3)
                log = cluster.runtimes[0].groups[0].sequencer.log
                assert isinstance(log, SequencerLog)
                assert sorted(log.entries()) == [1, 2, 3]
                assert [log.get(n).origin for n in (1, 2, 3)] == [0, 1, 2]
                for runtime in cluster.runtimes.values():
                    engine = runtime.groups[0].member(runtime.node_id).engine
                    assert isinstance(engine, OrderingEngine)
                    assert engine.next_expected == 4 and engine.buffered_count == 0
                assert cluster.runtimes[1].groups[0].sequencer is None

        asyncio.run(run())

    def test_the_seat_log_is_bounded_and_a_peer_serves_what_it_evicted(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "BroadcastParams",
                            functools.partial(BroadcastParams, history_size=4))

        async def run():
            async with InProcessCluster(3, object_table("broadcast")) as cluster:
                # Node 1 hears seqno 1 only; node 2 hears everything but 1.
                first = drop_first(("grp.data",))
                cluster.transports[1].drop_rx = (
                    lambda msg: msg.kind in ("grp.data", "grp.sync") and not first(msg))
                cluster.transports[2].drop_rx = drop_first(("grp.data",))
                seat = cluster.runtimes[0]
                for cseq in range(1, 6):
                    await seat.submit(1, "add", (1,), client=(0, 0), cseq=cseq)
                log = seat.groups[0].sequencer.log
                assert sorted(log.entries()) == [2, 3, 4, 5] and log.get(1) is None
                # The seat cannot serve 1, nor can its own member; node 1,
                # the designated peer of a later salvo, can.
                await asyncio.wait_for(self._value(cluster.runtimes[2], 5), 10.0)
                assert cluster.runtimes[1].groups[0].stats.peer_retransmissions == 1
                assert [entry[2] for entry in cluster.runtimes[2].objects[1].applied_log] \
                    == [1, 2, 3, 4, 5]

        asyncio.run(run())

    @staticmethod
    async def _value(runtime, value):
        while runtime.objects[1].instance.value != value:
            await asyncio.sleep(0.01)

    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=25, deadline=None)
    def test_any_arrival_order_applies_in_seqno_order(self, order):
        async def run():
            member, wire = await member_on_a_wire()
            try:
                for seqno in order:
                    member.node.dispatch(data(seqno))
                return member.objects[1].applied_log, member.status()
            finally:
                await member.stop()

        applied, status = asyncio.run(run())
        assert applied == [[0, 0, seqno, "add"] for seqno in range(1, 7)]
        assert status["shards"] == {"0": {"next_expected": 7, "holdback": 0,
                                          "sequencer": 0}}

    def test_a_stalled_gap_is_asked_of_the_seat_once_then_filled(self):
        async def run():
            member, wire = await member_on_a_wire()
            try:
                member.node.dispatch(data(2))
                member.node.dispatch(data(3))
                assert member.objects[1].applied_log == []
                assert member.status()["shards"]["0"]["holdback"] == 2
                await asyncio.sleep(4 * QUIET.gap_delay)
                [request] = wire.kinds("grp.retransmit_req")
                assert request.dst == 0
                assert request.headers == {"seqno": 1, "salvo": 1}
                member.node.dispatch(data(1))
                assert [entry[2] for entry in member.objects[1].applied_log] == [1, 2, 3]
                await asyncio.sleep(4 * QUIET.gap_delay)
                assert len(wire.kinds("grp.retransmit_req")) == 1
            finally:
                await member.stop()

        asyncio.run(run())

    def test_a_sync_beacon_reveals_a_lost_tail(self):
        async def run():
            member, wire = await member_on_a_wire()
            try:
                member.node.dispatch(data(1))
                member.node.dispatch(Message(src=0, dst=None, kind="grp.sync", size=1,
                                             headers={"seqno": 3}))
                await asyncio.sleep(4 * QUIET.gap_delay)
                requests = wire.kinds("grp.retransmit_req")
                assert [(m.dst, m.headers["seqno"]) for m in requests] == [(0, 2), (0, 3)]
            finally:
                await member.stop()

        asyncio.run(run())

    def test_primary_updates_are_held_back_by_version(self):
        async def run():
            member, wire = await member_on_a_wire("primary-update")
            try:
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
            finally:
                await member.stop()

        asyncio.run(run())


class ThreadedCluster:
    """An :class:`InProcessCluster` whose loop runs on a background thread,
    with one :class:`RealRtsFacade` per node for real client threads."""

    def __init__(self, num_nodes: int, table, timings: RealTimings = FAST) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.cluster = InProcessCluster(num_nodes, table, timings=timings)
        self.handle = ObjectHandle(obj_id=1, name="cell",
                                   spec_class=resolve_spec(table[0]["spec"]))

    def call(self, coro, timeout: float = 20.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def __enter__(self) -> "ThreadedCluster":
        self.thread.start()
        self.call(self.cluster.__aenter__())
        self.facades = {node_id: RealRtsFacade(runtime, self.loop, op_timeout=20.0)
                        for node_id, runtime in self.cluster.runtimes.items()}
        return self

    def __exit__(self, *exc) -> None:
        self.call(self.cluster.__aexit__(None, None, None))
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)
        assert not self.thread.is_alive()
        self.loop.close()

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


class TestClientThreads:
    """Reads on the client thread, writes through the loop, both at once."""

    def test_reads_are_monotone_and_see_the_clients_own_writes(self):
        rounds = 150
        with ThreadedCluster(3, object_table("broadcast")) as threaded:
            def client(facade, proc):
                last = 0
                for _ in range(rounds):
                    written = facade.invoke(proc, threaded.handle, "add", (1,))
                    for _ in range(3):
                        seen = facade.invoke(proc, threaded.handle, "read")
                        # Its own acknowledged write is visible, and the
                        # counter never runs backwards for one client.
                        assert seen >= written and seen >= last
                        last = seen

            threaded.run_clients(client)
            threaded.call(threaded.cluster.converged(6 * rounds))
            for runtime in threaded.cluster.runtimes.values():
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
            with ThreadedCluster(3, object_table("broadcast", spec=Pair)) as threaded:
                def client(facade, proc):
                    if proc.client_id == 0:
                        for _ in range(100):
                            facade.invoke(proc, threaded.handle, "bump")
                        stop.set()
                        return
                    while not stop.is_set():
                        a, b = facade.invoke(proc, threaded.handle, "snapshot")
                        assert a == b, f"torn read: a={a} b={b}"

                try:
                    threaded.run_clients(client)
                finally:
                    stop.set()
                threaded.call(threaded.cluster.converged_state([300, 300]))
        finally:
            sys.setswitchinterval(switch_interval)

    def test_submit_deadline_raises_network_error_on_the_client_thread(self):
        impatient = RealTimings(heartbeat_interval=0.03, dead_after=5.0,
                                retry_interval=0.03, sync_interval=0.03,
                                gap_delay=0.02, submit_deadline=0.2)
        with ThreadedCluster(3, object_table("broadcast"), impatient) as threaded:
            threaded.cluster.transports[1].drop_tx = (
                lambda msg, dst: msg.kind == "grp.request")
            proc = ClientProc(1, 0)
            with pytest.raises(NetworkError, match="did not complete"):
                threaded.facades[1].invoke(proc, threaded.handle, "add", (1,))
            assert threaded.cluster.runtimes[1].status()["pending_ops"] == 0
            assert threaded.cluster.transports[1].stats.send_drops >= 2

    def test_submit_and_invoke_observe_the_same_result(self):
        with ThreadedCluster(3, object_table("broadcast")) as threaded:
            runtime, facade = threaded.cluster.runtimes[1], threaded.facades[1]
            proc = ClientProc(1, 0)
            assert facade.invoke(proc, threaded.handle, "assign", (7,)) == 7
            assert threaded.call(runtime.submit(1, "assign", (7,), client=(1, 1),
                                                cseq=1)) == 7
            assert facade.invoke(proc, threaded.handle, "add", (2,)) == 9
            assert threaded.call(runtime.submit(1, "add", (2,), client=(1, 1),
                                                cseq=2)) == 11
            assert facade.invoke(proc, threaded.handle, "read") == 11
            assert threaded.call(runtime.submit(1, "read")) == 11

    def test_real_send_path_never_estimates_a_payload(self, monkeypatch):
        calls = []

        def estimate_size(value):
            calls.append(value)
            return 1

        monkeypatch.setattr(message_module, "estimate_size", estimate_size)
        monkeypatch.setattr(group_module, "estimate_size", estimate_size)
        with ThreadedCluster(3, object_table("broadcast")) as threaded:
            proc = ClientProc(1, 0)
            assert threaded.facades[1].invoke(proc, threaded.handle, "add", (1,)) == 1
            threaded.call(threaded.cluster.converged(1))
            sent = threaded.cluster.transports[1].stats
            assert sent.datagrams_sent > 0 and sent.datagrams_received > 0
        assert calls == []
