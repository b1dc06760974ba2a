"""Event and event-queue primitives for the discrete-event kernel.

The queue is the simulator's innermost data structure: every message hop,
timer, resource grant and process resume passes through it, so its constant
factors bound the throughput of every benchmark.  Three structures share the
work, each tuned to one traffic class:

* a **now bucket** (FIFO deque) for events scheduled at the current virtual
  time — the delay-zero storm of resource grants, callbacks and wake-ups
  that dominates protocol-heavy runs; O(1) push and pop, no heap traffic;
* a **slotted timer wheel** for the homogeneous short delays (NIC hops,
  retransmit timers, heartbeats): events land in a fixed-width slot by
  quantised timestamp and each slot is sorted once, when its turn comes;
* a **binary heap of ``(time, seq, event)`` tuples** for far timestamps and
  every case the wheel cannot take without risking order — tuple entries
  keep all comparisons in C instead of calling ``Event.__lt__``.

Correctness does not depend on which structure holds an event: the queue
always pops the globally smallest ``(time, seq)`` pair, so delivery order —
and therefore the simulation's virtual-time behaviour — is bit-for-bit the
same as with a single stable heap.  A property test pins that equivalence
against a reference implementation.

Cancelled events are dropped lazily when they surface; when they outnumber
the live ones the queue compacts all structures in one pass so a cancel-heavy
workload (retransmit timers that almost always get cancelled) cannot grow the
heap without bound.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError

#: Width of one timer-wheel slot in virtual seconds.  Chosen *below* the
#: simulated network's packet latencies and protocol delays (tens to
#: hundreds of microseconds) so a typical push lands a few slots ahead of
#: the floor rather than inside the just-drained current slot (which would
#: degrade it to the heap).
SLOT_WIDTH = 2e-5
_INV_SLOT_WIDTH = 1.0 / SLOT_WIDTH
#: Number of slots: the wheel covers ``WHEEL_SLOTS * SLOT_WIDTH`` (~10 ms)
#: of future virtual time; anything beyond falls back to the heap.
WHEEL_SLOTS = 512
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
    Fired events with no outside references are recycled through a free list
    (see :meth:`repro.sim.kernel.Simulator.run`).
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "cancelled", "fired", "proc")

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
        #: The process this event starts or resumes, else ``None``: such an
        #: event may fire on a process's carrier thread (see ``process.py``).
        self.proc: Any = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def fire(self) -> None:
        """Invoke the callback (used by the simulator run loop)."""
        if self.cancelled:
            return
        self.fired = True
        if self.kwargs:
            self.callback(*self.args, **self.kwargs)
        else:
            self.callback(*self.args)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

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
    scheduling.  Internally the queue is the three-structure design described
    in the module docstring; externally it behaves exactly like one stable
    heap.
    """

    def __init__(self) -> None:
        #: Far timestamps and order-risky pushes: ``(time, seq, event)``.
        self._heap: List[Tuple[float, int, Event]] = []
        #: Events at the current virtual time, in push (== seq) order.
        self._now_bucket: Deque[Event] = deque()
        #: The timer wheel: ring of per-slot entry lists.
        self._wheel: List[List[Tuple[float, int, Event]]] = [[] for _ in range(WHEEL_SLOTS)]
        self._wheel_count = 0
        #: Absolute slot index below which wheel slots are already drained.
        self._wheel_floor = 0
        #: The drained slot currently being consumed, sorted, plus a cursor.
        self._ready: List[Tuple[float, int, Event]] = []
        self._ready_pos = 0
        #: Virtual time of the most recently popped event: pushes at exactly
        #: this time go to the now bucket (they cannot precede anything).
        self._time = 0.0
        self._next_seq = 0
        self._live = 0
        #: Cancelled entries still buffered in some structure.
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
        """Total entries currently held in all structures (live + cancelled).

        Exposed so tests can pin that lazy compaction really bounds the
        structures: after compaction ``buffered == len(queue)``.
        """
        return (
            len(self._heap)
            + len(self._now_bucket)
            + self._wheel_count
            + (len(self._ready) - self._ready_pos)
        )

    # ------------------------------------------------------------------ #
    # Push
    # ------------------------------------------------------------------ #

    def push(self, event: Event) -> None:
        """Insert an event into the queue.

        Raises
        ------
        SimulationError
            If the event's time is below that of the last popped event.
        """
        self._live += 1
        time = event.time
        if time <= self._time:
            if time == self._time:
                # At the current virtual time: nothing buffered can precede
                # it except same-time entries pushed earlier, which the
                # pop-side three-way comparison handles.  O(1), no heap
                # traffic — and the dominant case (delay-zero callbacks).
                self._now_bucket.append(event)
            else:
                # Strictly in the past: the pop-side comparison only orders
                # the now bucket against the rest while every buffered time
                # is >= the last popped one, so this is a caller bug
                # (``Simulator.schedule``/``schedule_at`` reject it first).
                self._live -= 1
                raise SimulationError(
                    f"cannot push an event at {time} before the last popped time {self._time}"
                )
            return
        idx = int(time * _INV_SLOT_WIDTH)
        floor = self._wheel_floor
        if idx >= floor + WHEEL_SLOTS:
            # The floor lags virtual time whenever slots empty without being
            # drained; catch it up so the wheel window tracks the clock
            # instead of decaying into a permanent heap fallback.
            floor = self._advance_floor()
        if floor <= idx < floor + WHEEL_SLOTS:
            self._wheel[idx % WHEEL_SLOTS].append((time, event.seq, event))
            self._wheel_count += 1
        else:
            # Too far for the wheel horizon, or its slot was already drained
            # (possible when virtual time lags the drained slot): the heap
            # takes every case the wheel cannot hold without risking order.
            heappush(self._heap, (time, event.seq, event))

    def _advance_floor(self) -> int:
        """Advance the wheel floor to the slot holding the current time.

        Every pending event's timestamp is >= the last popped time, so slots
        strictly below the current slot can only contain cancelled
        stragglers; they are discarded as the floor passes them (each slot is
        visited at most once over the simulation, so this is amortised O(1)).
        """
        floor = self._wheel_floor
        current = int(self._time * _INV_SLOT_WIDTH)
        if current <= floor:
            return floor
        if self._wheel_count:
            wheel = self._wheel
            while floor < current:
                slot = wheel[floor % WHEEL_SLOTS]
                if slot:
                    self._wheel_count -= len(slot)
                    self._cancelled_buffered -= len(slot)
                    slot.clear()
                floor += 1
        else:
            floor = current
        self._wheel_floor = floor
        return floor

    # ------------------------------------------------------------------ #
    # Pop / peek
    # ------------------------------------------------------------------ #

    def _drain_next_slot(self) -> None:
        """Move the earliest non-empty wheel slot into the sorted ready list."""
        wheel = self._wheel
        floor = self._wheel_floor
        while True:
            slot = wheel[floor % WHEEL_SLOTS]
            if slot:
                break
            floor += 1
        self._wheel_floor = floor + 1
        self._wheel_count -= len(slot)
        slot.sort()
        self._ready = slot
        self._ready_pos = 0
        wheel[floor % WHEEL_SLOTS] = []

    def _settle(self) -> Optional[Tuple[float, int, int]]:
        """Drop cancelled heads, drain wheel slots as needed, and return the
        globally smallest ``(time, seq, source)`` key, or ``None`` if empty.

        ``source`` is 0 for the now bucket, 1 for the ready list, 2 for the
        heap; :meth:`pop_next` pops from the corresponding structure.
        """
        nb = self._now_bucket
        while nb and nb[0].cancelled:
            nb.popleft()
            self._cancelled_buffered -= 1
        while True:
            ready = self._ready
            pos = self._ready_pos
            n_ready = len(ready)
            while pos < n_ready and ready[pos][2].cancelled:
                pos += 1
                self._cancelled_buffered -= 1
            if pos >= n_ready and n_ready:
                ready = self._ready = []
                pos = 0
                n_ready = 0
            self._ready_pos = pos
            heap = self._heap
            while heap and heap[0][2].cancelled:
                heappop(heap)
                self._cancelled_buffered -= 1
            best_key: Optional[Tuple[float, int, int]] = None
            if nb:
                head = nb[0]
                best_key = (head.time, head.seq, 0)
            if pos < n_ready:
                time, seq, _ = ready[pos]
                if best_key is None or (time, seq) < (best_key[0], best_key[1]):
                    best_key = (time, seq, 1)
            if heap:
                time, seq, _ = heap[0]
                if best_key is None or (time, seq) < (best_key[0], best_key[1]):
                    best_key = (time, seq, 2)
            if not self._wheel_count:
                return best_key
            # The wheel can only beat the candidate if its earliest slot is
            # at or before the candidate's slot (slot indices are a monotone
            # quantisation of time, and an equal-slot entry can still win on
            # seq).  Draining eagerly here would push the floor ahead of
            # virtual time and degrade future pushes to the heap, so drain
            # only when the slot is genuinely in contention.
            slot = self._earliest_wheel_slot()
            if best_key is not None and int(best_key[0] * _INV_SLOT_WIDTH) < slot:
                return best_key
            self._drain_next_slot()

    def _earliest_wheel_slot(self) -> int:
        """Absolute index of the earliest non-empty wheel slot (count > 0)."""
        wheel = self._wheel
        floor = self._wheel_floor
        while not wheel[floor % WHEEL_SLOTS]:
            floor += 1
        self._wheel_floor = floor
        return floor

    def pop_next(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` when empty."""
        key = self._settle()
        if key is None:
            return None
        source = key[2]
        if source == 0:
            event = self._now_bucket.popleft()
        elif source == 1:
            event = self._ready[self._ready_pos][2]
            self._ready_pos += 1
        else:
            event = heappop(self._heap)[2]
        self._live -= 1
        self._time = event.time
        return event

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
        key = self._settle()
        if key is None:
            return None
        return key[0]

    # ------------------------------------------------------------------ #
    # Cancellation / compaction
    # ------------------------------------------------------------------ #

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
        """Drop every buffered cancelled entry in one pass.

        Without this, cancel-heavy traffic (retransmit timers that are almost
        always cancelled by the delivery they guard) leaves the heap full of
        dead entries until they surface at pop time.  Triggered lazily from
        :meth:`note_cancelled` once the dead outnumber the living.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        if self._ready_pos or any(entry[2].cancelled for entry in self._ready):
            # Filtering keeps the ready list sorted, so the cursor resets.
            self._ready = [
                entry for entry in self._ready[self._ready_pos :] if not entry[2].cancelled
            ]
            self._ready_pos = 0
        for index, slot in enumerate(self._wheel):
            if slot:
                kept = [entry for entry in slot if not entry[2].cancelled]
                if len(kept) != len(slot):
                    self._wheel_count -= len(slot) - len(kept)
                    self._wheel[index] = kept
        if any(event.cancelled for event in self._now_bucket):
            self._now_bucket = deque(event for event in self._now_bucket if not event.cancelled)
        self._cancelled_buffered = 0

    def clear(self) -> None:
        """Discard all events."""
        self._heap.clear()
        self._now_bucket.clear()
        for slot in self._wheel:
            slot.clear()
        self._wheel_count = 0
        self._ready = []
        self._ready_pos = 0
        self._live = 0
        self._cancelled_buffered = 0
