"""Event and event-queue primitives for the discrete-event kernel.

The queue is the simulator's innermost data structure: every message hop,
timer and process resume passes through it, so its constant factors bound the
throughput of every benchmark.  It is **one binary heap of
``(time, seq, event)`` tuples**: ``seq`` is unique, so every comparison is
settled in C on the first two fields and equal timestamps pop in push order.
That stable ``(time, seq)`` order is the whole contract: delivery order — and
therefore the simulation's virtual-time behaviour — is a function of the
pushes alone.  A property test pins it against a ten-line reference heap.

One structure, not one per traffic class: a now bucket and a timer wheel in
front of this heap each beat it on their own kind of push, but choosing among
three structures on every push, pop and peek cost more than the heap
operations saved (docs/ARCHITECTURE.md#sim-the-simulation-kernel).

Cancelled events are dropped lazily when they surface; when they outnumber
the live ones the queue compacts the heap in one pass so a cancel-heavy
workload (retransmit timers that almost always get cancelled) cannot grow it
without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

#: Compaction trigger: compact once at least this many cancelled entries are
#: buffered *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback in virtual time.

    Events are created through :meth:`repro.sim.kernel.Simulator.schedule`.
    They can be cancelled before they fire; a cancelled event is skipped by
    the run loop without invoking its callback.

    ``kwargs`` is ``None`` (not an empty dict) for the overwhelmingly common
    keyword-less case, so scheduling does not allocate a dict per event.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.kwargs = kwargs or None
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return (
            f"<Event t={self.time:.6f} seq={self.seq} {state} "
            f"cb={getattr(self.callback, '__name__', self.callback)!r}>"
        )


class EventQueue:
    """A stable priority queue of :class:`Event` objects.

    Events with equal timestamps fire in insertion order, which is what makes
    the simulation deterministic independent of hash ordering or OS thread
    scheduling.  :meth:`push`, :meth:`pop_next` and :meth:`peek_time` are the
    only way in: the heap list is private, and :meth:`_compact` rewrites it
    in place, so nobody may hold it across a call.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        #: Virtual time of the most recently popped event: the floor for pushes.
        self._time = 0.0
        self._next_seq = 0
        self._live = 0
        #: Cancelled entries still in the heap.
        self._cancelled_buffered = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def next_seq(self) -> int:
        """Return a fresh monotonically-increasing sequence number."""
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    @property
    def buffered(self) -> int:
        """Total entries currently held (live + cancelled).

        Exposed so tests can pin that lazy compaction really bounds the
        heap: after compaction ``buffered == len(queue)``.
        """
        return len(self._heap)

    def push(self, event: Event) -> None:
        """Insert an event into the queue.

        Raises
        ------
        SimulationError
            If the event's time is below that of the last popped event (the
            clock would run backwards), NaN (every comparison with it is
            false, which silently breaks the heap order) or infinite.
        """
        time = event.time
        if not self._time <= time < inf:
            raise SimulationError(
                f"cannot push an event at {time}: not a finite time at or after "
                f"the last popped time {self._time}"
            )
        self._live += 1
        heappush(self._heap, (time, event.seq, event))

    def pop_next(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._cancelled_buffered -= 1
                continue
            self._live -= 1
            self._time = event.time
            return event
        return None

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises
        ------
        SimulationError
            If the queue contains no live events.
        """
        event = self.pop_next()
        if event is None:
            raise SimulationError("pop() from an empty event queue")
        return event

    def peek_time(self) -> Optional[float]:
        """Return the virtual time of the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            if not heap[0][2].cancelled:
                return heap[0][0]
            heappop(heap)
            self._cancelled_buffered -= 1
        return None

    def note_cancelled(self) -> None:
        """Inform the queue that one of its events was cancelled externally."""
        if self._live > 0:
            self._live -= 1
            self._cancelled_buffered += 1
            if (
                self._cancelled_buffered >= _COMPACT_MIN_CANCELLED
                and self._cancelled_buffered > self._live
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop every buffered cancelled entry in one pass, in place.

        Without this, cancel-heavy traffic (retransmit timers that are almost
        always cancelled by the delivery they guard) leaves the heap full of
        dead entries until they surface at pop time.  Triggered lazily from
        :meth:`note_cancelled` once the dead outnumber the living.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._cancelled_buffered = 0

    def clear(self) -> None:
        """Discard all events."""
        self._heap.clear()
        self._live = 0
        self._cancelled_buffered = 0
