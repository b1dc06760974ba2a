"""The real backend's host for the simulator's broadcast groups.

A node process hosts one ``GroupMember`` per shard, and the shard's
``Sequencer`` while it holds the seat.  :class:`RealNode` is what they read of
their node and host (the ``GroupNode`` and ``GroupHost`` Protocols): a clock,
timers on the event loop, one handler table for every kind the process
receives, and ``send`` over the :class:`~repro.net.udp.UdpTransport`.  On the
wire a ``MessageId`` is ``[origin, counter]`` and a ``DeliveredMessage``
``[seqno, origin, counter, payload, size]``; :meth:`RealNode.register_handler`
rebuilds them, so the group sees the simulator's own types.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import itertools
import time
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
    """One node process as its groups see it: node, clock, timers and host.
    The groups arm and cancel timers per message, so they share one heap
    and one loop callback: arming is a push, cancelling a dict pop."""

    alive = True

    def __init__(self, node_id: int, transport: UdpTransport) -> None:
        self.node_id = node_id
        self.network = transport
        self.nodes = [self]
        self.cost_model = CostModel()
        self.sim = self.kernel = self
        #: Set by the runtime's ``start``: timers need a running loop.
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._handlers: Dict[str, Handler] = {}
        #: Live timers by id; ``_due`` holds (when, id), cancelled ones too
        #: until they come up.
        self._timers: Dict[int, Tuple[Callable[..., Any], tuple]] = {}
        self._due: List[Tuple[float, int]] = []
        self._wakeup: Optional[asyncio.TimerHandle] = None
        self._timer_ids = itertools.count(1)

    @property
    def now(self) -> float:
        return time.monotonic()

    def _nothing(self, *args: Any, **kwargs: Any) -> None:
        """CPU charges and crash recovery: simulator notions."""

    charge_overhead = on_recover = _nothing

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> int:
        timer_id = next(self._timer_ids)
        when = time.monotonic() + delay  # the loop's clock
        self._timers[timer_id] = (callback, args)
        heapq.heappush(self._due, (when, timer_id))
        if self._due[0][1] == timer_id:
            self._wake_at(when)
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        self._timers.pop(timer_id, None)

    def _wake_at(self, when: float) -> None:
        if self._wakeup is not None:
            self._wakeup.cancel()
        self._wakeup = self.loop.call_at(when, self._run_due)

    def _run_due(self) -> None:
        self._wakeup = None
        due, timers, now = self._due, self._timers, time.monotonic()
        try:
            while due and (due[0][0] <= now or due[0][1] not in timers):
                timer = timers.pop(heapq.heappop(due)[1], None)
                if timer is not None:
                    timer[0](*timer[1])
        finally:  # a callback that raises must not stop the others
            if due:
                self._wake_at(due[0][0])

    def stop(self) -> None:
        """Disarm every timer the groups left armed."""
        if self._wakeup is not None:
            self._wakeup.cancel()
        self._wakeup = None
        self._timers.clear()
        self._due.clear()

    def register_handler(self, kind: str, handler: Handler) -> None:
        if kind in self._handlers:
            raise NetworkError(f"node {self.node_id} already has a handler for {kind!r}")
        decode = _DECODERS.get(kind.partition("#")[0])
        self._handlers[kind] = handler if decode is None else functools.partial(decode, handler)

    def dispatch(self, msg: Message) -> None:
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
