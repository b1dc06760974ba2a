"""The real backend's host for the simulator's broadcast groups, and its loop.

A node process hosts one ``GroupMember`` per shard, and the shard's
``Sequencer`` while it holds the seat.  :class:`RealNode` is what they read of
their node and host (the ``GroupNode`` and ``GroupHost`` Protocols): a clock,
timers on the node's own heap, one handler table for every kind the process
receives, and ``send`` over the :class:`~repro.net.udp.UdpTransport`.  On the
wire a ``MessageId`` is ``[origin, counter]`` and a ``DeliveredMessage``
``[seqno, origin, counter, payload, size]``; :meth:`RealNode.register_handler`
rebuilds them, so the group sees the simulator's own types.

The node also owns the process's one loop (:meth:`RealNode.run`): a selector
over the sockets it watches (the UDP socket, the control socket) and a wake
socketpair, which sleeps until a socket is readable or the next timer is due.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import selectors
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..amoeba.broadcast.protocol import (KIND_DATA, KIND_REQUEST, KIND_RETRANSMIT,
                                         DeliveredMessage, MessageId)
from ..amoeba.message import Message, make_message
from ..config import CostModel
from ..errors import NetworkError
from .udp import UdpTransport

Handler = Callable[[Message], None]


def _record(handler: Handler, msg: Message) -> None:
    seqno, origin, counter, payload, size = msg.payload
    msg.payload = DeliveredMessage(seqno, origin, MessageId(origin, counter),
                                   payload, size)
    handler(msg)


def _uid(handler: Handler, msg: Message) -> None:
    msg.headers["uid"] = MessageId(*msg.headers["uid"])
    handler(msg)


#: Base kind -> what rebuilds the simulator's records for its handler (the
#: real groups send PB only, so no BB kind carries one).
_DECODERS = {KIND_DATA: _record, KIND_RETRANSMIT: _record, KIND_REQUEST: _uid}


class RealNode:
    """One node process as its groups see it (node, clock, timers and host),
    and the loop that serves them.  The groups arm and cancel timers per
    message, so they share one heap: arming is a push, cancelling a dict pop.
    ``lock`` guards all protocol state of the process, the heap included;
    only the loop pops the heap, so it peeks at the head without the lock.
    While the loop sleeps, ``_wake_when`` is when it wakes, and a thread that
    arms an earlier timer writes one byte to the wake socketpair.  While it is
    awake, ``_wake_when`` is ``-inf``: it reads the heap again before it
    sleeps.
    """

    alive = True

    def __init__(self, node_id: int, transport: UdpTransport) -> None:
        self.node_id = node_id
        self.network = transport
        self.nodes = [self]
        self.cost_model = CostModel()
        self.lock = threading.Lock()
        self._handlers: Dict[str, Handler] = {}
        #: Live timers by id; ``_due`` holds (when, id), cancelled ones too
        #: until they come up.
        self._timers: Dict[int, Tuple[Callable[..., Any], tuple]] = {}
        self._due: List[Tuple[float, int]] = []
        self._wake_when = float("-inf")
        self._timer_ids = itertools.count(1)
        self._selector = selectors.DefaultSelector()
        self._waker, self._waked = socket.socketpair()
        self._waker.setblocking(False)  # a full pair never blocks an arming thread
        self.watch(self._waked, functools.partial(self._waked.recv, 4096))
        self._serving = True

    @property
    def now(self) -> float:
        return time.monotonic()

    def _nothing(self, *args: Any, **kwargs: Any) -> None:
        """CPU charges and crash recovery: simulator notions."""

    charge_overhead = on_recover = _nothing

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> int:
        timer_id = next(self._timer_ids)
        when = time.monotonic() + delay
        self._timers[timer_id] = (callback, args)
        heapq.heappush(self._due, (when, timer_id))
        if when < self._wake_when:
            self._wake_when = float("-inf")
            self.wake()
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)

    def _run_due(self) -> None:
        due, timers, now = self._due, self._timers, time.monotonic()
        while due and (due[0][0] <= now or due[0][1] not in timers):
            timer = timers.pop(heapq.heappop(due)[1], None)
            if timer is not None:
                try:
                    timer[0](*timer[1])
                except Exception:  # one timer that raises stops no other
                    traceback.print_exc()

    def stop(self) -> None:
        """Disarm every timer the groups left armed (the loop drops them from
        the heap as they come up)."""
        self._timers.clear()

    def watch(self, sock: socket.socket, on_readable: Callable[[], None]) -> None:
        """Call ``on_readable()`` on the loop whenever ``sock`` is readable;
        it takes ``lock`` itself if it needs it."""
        self._selector.register(sock, selectors.EVENT_READ, on_readable)

    def unwatch(self, sock: socket.socket) -> None:
        """Stop watching ``sock``, before it is closed while the loop runs.
        On the loop's thread (a timer or a socket callback): the selector is
        the loop's."""
        self._selector.unregister(sock)

    def wake(self) -> None:
        """From any thread: make the loop run a pass now."""
        try:
            self._waker.send(b"\0")
        except OSError:
            pass  # full of wake-ups the loop has yet to read, or closed with it

    def run(self) -> None:
        """Serve the watched sockets and the timers on this thread until
        :meth:`halt`; then release the selector and the wake pair."""
        select, lock, due, clock = self._selector.select, self.lock, self._due, time.monotonic
        never = float("inf")
        try:
            while self._serving:
                if due and due[0][0] <= clock():
                    with lock:
                        self._run_due()
                # Asleep from here on for any thread that arms a timer, so
                # one it pushes after the head is read below still wakes it.
                self._wake_when = never
                when = self._wake_when = due[0][0] if due else never
                ready = select(None if when == never else max(0.0, when - clock()))
                self._wake_when = -never
                for key, _events in ready:
                    try:
                        key.data()
                    except Exception:  # as for a timer: the loop goes on
                        traceback.print_exc()
        finally:  # the watched sockets stay their owners' to close
            self._selector.close()
            self._waker.close()
            self._waked.close()

    def halt(self) -> None:
        """From any thread: end :meth:`run` after its current pass (or at once)."""
        self._serving = False
        self.wake()

    def register_handler(self, kind: str, handler: Handler) -> None:
        if kind in self._handlers:
            raise NetworkError(f"node {self.node_id} already has a handler for {kind!r}")
        decode = _DECODERS.get(kind.partition("#")[0])
        self._handlers[kind] = handler if decode is None else functools.partial(decode, handler)

    def dispatch(self, msg: Message) -> None:
        with self.lock:
            self._handlers[msg.kind](msg)

    make_message = make_message

    def send(self, msg: Message, on_sent: Optional[Handler] = None) -> None:
        record = msg.payload
        if type(record) is DeliveredMessage:
            msg.payload = [record.seqno, record.origin, record.uid.counter,
                           record.payload, record.size]
        uid = msg.headers.get("uid")
        if uid is not None:
            msg.headers["uid"] = [uid.origin, uid.counter]
        self.network.send(msg, on_sent)
