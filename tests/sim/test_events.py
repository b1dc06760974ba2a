"""Unit tests for the event queue."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator


def make_event(queue: EventQueue, time: float) -> Event:
    return Event(time, queue.next_seq(), lambda: None)


class ReferenceQueue:
    """The oracle: one stable heap, nothing else (no counts, no compaction, no checks)."""

    def __init__(self) -> None:
        self._heap = []

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def _skip_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)

    def pop_next(self):
        self._skip_cancelled()
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def peek_time(self):
        self._skip_cancelled()
        return self._heap[0][0] if self._heap else None


class TestEventQueue:
    def test_empty_queue_is_falsy(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0
        assert queue.peek_time() is None

    def test_pop_from_empty_raises(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.pop()

    def test_pop_returns_earliest(self):
        queue = EventQueue()
        late = make_event(queue, 5.0)
        early = make_event(queue, 1.0)
        queue.push(late)
        queue.push(early)
        assert queue.pop() is early
        assert queue.pop() is late

    def test_fifo_order_for_equal_times(self):
        queue = EventQueue()
        events = [make_event(queue, 1.0) for _ in range(10)]
        for event in events:
            queue.push(event)
        popped = [queue.pop() for _ in range(10)]
        assert popped == events

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = make_event(queue, 1.0)
        second = make_event(queue, 2.0)
        queue.push(first)
        queue.push(second)
        first.cancel()
        queue.note_cancelled()
        assert len(queue) == 1
        assert queue.pop() is second

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = make_event(queue, 1.0)
        second = make_event(queue, 2.0)
        queue.push(first)
        queue.push(second)
        first.cancel()
        queue.note_cancelled()
        assert queue.peek_time() == 2.0

    def test_clear(self):
        queue = EventQueue()
        queue.push(make_event(queue, 1.0))
        queue.clear()
        assert not queue

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0])
    def test_push_validates_before_it_counts(self, time):
        """NaN compares false with everything: on a heap it would not raise, it
        would sit wherever it landed and break the order around it."""
        queue = EventQueue()
        queue.push(make_event(queue, 1.0))
        with pytest.raises(SimulationError):
            queue.push(make_event(queue, time))
        assert len(queue) == queue.buffered == 1
        assert queue.pop().time == 1.0 and not queue

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    def test_pop_order_is_sorted_and_stable(self, times):
        queue = EventQueue()
        events = []
        for t in times:
            event = make_event(queue, t)
            events.append(event)
            queue.push(event)
        popped = [queue.pop() for _ in range(len(events))]
        # Times must come out non-decreasing.
        popped_times = [e.time for e in popped]
        assert popped_times == sorted(popped_times)
        # Equal times must preserve insertion order (stability).
        expected = sorted(events, key=lambda e: (e.time, e.seq))
        assert popped == expected


class TestEqualTimeOrder:
    def test_push_at_the_current_time_does_not_jump_older_entries(self):
        queue = EventQueue()
        t = 1e-4
        first = make_event(queue, t)
        second = make_event(queue, t)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first  # advances the queue's clock to t
        third = make_event(queue, t)  # a delay-zero push: same time, newer seq
        queue.push(third)
        assert queue.pop() is second  # older seq wins
        assert queue.pop() is third


class TestCompaction:
    def test_cancel_heavy_load_compacts_buffers(self):
        queue = EventQueue()
        events = []
        for i in range(200):
            event = make_event(queue, 1.0 + i * 1e-3)
            events.append(event)
            queue.push(event)
        assert queue.buffered == 200
        for event in events[:150]:
            event.cancel()
            queue.note_cancelled()
        # Compaction triggers at the 101st cancel (cancelled > live): the
        # heap shrinks to the 99 entries still buffered at that point,
        # and the 49 cancels after it stay under the retrigger threshold.
        assert len(queue) == 50
        assert queue.buffered == 99
        assert [queue.pop() for _ in range(50)] == events[150:]
        assert not queue
        assert queue.buffered == 0

    def test_compaction_between_two_pops_of_one_run(self):
        """The heap is rewritten between two pops of one loop; the next pop must
        see the rewritten heap (a loop that held on to the old list lost events)."""
        queue, reference = EventQueue(), ReferenceQueue()
        events = [make_event(queue, 1.0 + (i * 37 % 200) * 1e-3) for i in range(200)]
        for event in events:
            queue.push(event)
            reference.push(event)
        # Pops eat the head, cancels eat the tail: they meet when it is empty.
        victims = iter(sorted(events, key=lambda e: (e.time, e.seq), reverse=True))
        compactions = 0
        while queue:
            before = queue.buffered
            next(victims).cancel()
            queue.note_cancelled()
            if queue.buffered < before:
                compactions += 1
                assert queue.buffered == len(queue)
            assert queue.pop_next() is reference.pop_next()
        assert compactions >= 1
        assert queue.pop_next() is None and reference.pop_next() is None
        assert queue.buffered == 0


#: Delays past the last popped time, which is all the queue's contract
#: admits (``Simulator.schedule`` adds them to ``now``): zero, near ties a
#: few microseconds apart, small floats, and far timestamps, so pushes
#: collide on equal timestamps often and land all over the heap.
_delays = st.one_of(
    st.integers(min_value=0, max_value=80).map(lambda i: i * 1.7e-5),
    st.floats(min_value=0, max_value=0.02, allow_nan=False),
    st.integers(min_value=0, max_value=30).map(lambda i: i * 0.31),
)

#: A "burst" schedules that many events at once (delays cycling through a
#: fixed spread) and a "cancel-run" cancels that many of the queued ones, so
#: that a draw can push the cancelled past ``_COMPACT_MIN_CANCELLED`` *and*
#: past the live count - a compaction - with pops on either side of it.
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("burst"), st.integers(min_value=65, max_value=200)),
        st.tuples(st.just("cancel-run"), st.integers(min_value=33, max_value=200)),
    ),
    max_size=200,
)


class TestEventQueueMatchesReference:
    # "push" takes an absolute time and is not generated: it is here for the
    # case hypothesis once found, where a push below the last popped time
    # moved the queue's clock backwards and 0.015625 came out before 0.0.
    @example(
        [("push", 0.015625), ("pop", 0), ("push", 0.0), ("push", 0.015625), ("pop", 0), ("push", 0.0)]
    )
    # A compaction in the middle of a run of pops: 120 queued, 100 cancelled.
    @example([("burst", 120)] + [("pop", 0)] * 5 + [("cancel-run", 100)] + [("pop", 0)] * 5)
    @given(_operations)
    def test_interleaved_ops_match_single_stable_heap(self, operations):
        queue = EventQueue()
        reference = ReferenceQueue()
        in_queue = []  # pushed, not yet popped or cancelled
        now = 0.0  # time of the last popped event

        def push(time):
            event = Event(time, queue.next_seq(), lambda: None)
            queue.push(event)
            reference.push(event)
            in_queue.append(event)

        def cancel(index):
            event = in_queue.pop(index % len(in_queue))
            event.cancel()
            before = queue.buffered
            queue.note_cancelled()
            if queue.buffered < before:  # compacted
                assert queue.buffered == len(queue)

        for op, arg in operations:
            if op == "push" and arg < now:
                with pytest.raises(SimulationError):
                    queue.push(Event(float(arg), queue.next_seq(), lambda: None))
                assert len(queue) == len(in_queue)
            elif op in ("push", "schedule"):
                push(float(arg) if op == "push" else now + arg)
            elif op == "burst":
                for index in range(arg):
                    push(now + (index * 7 % 23) * 1.7e-5)
            elif op == "pop":
                popped = queue.pop_next()
                assert popped is reference.pop_next()
                if popped is not None:
                    in_queue.remove(popped)
                    now = popped.time
            elif op == "peek":
                assert queue.peek_time() == reference.peek_time()
            elif op == "cancel-run":
                for index in range(min(arg, len(in_queue))):
                    cancel(index * 13)
            elif in_queue:  # cancel a still-queued event
                cancel(arg)
            assert len(queue) == len(in_queue)
        # Drain both: every remaining live event must come out in the same order.
        while True:
            mine = queue.pop_next()
            assert mine is reference.pop_next()
            if mine is None:
                break
        assert len(queue) == 0
        assert queue.buffered == 0


class TestEvent:
    """An event fires through ``Simulator.run``, the one loop that fires events."""

    def test_fire_invokes_callback(self):
        calls = []
        with Simulator() as sim:
            event = sim.schedule(0.0, lambda x: calls.append(x), 42)
            sim.run()
        assert calls == [42]
        assert event.fired

    def test_cancelled_event_does_not_fire(self):
        calls = []
        with Simulator() as sim:
            event = sim.schedule(0.0, lambda: calls.append(1))
            sim.cancel(event)
            sim.run()
        assert calls == []
        assert not event.fired

    def test_pending_property(self):
        with Simulator() as sim:
            event = sim.schedule(0.0, lambda: None)
            assert event.pending
            sim.run()
        assert not event.pending
