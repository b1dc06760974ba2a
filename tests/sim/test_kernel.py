"""Unit tests for the simulator run loop and scheduling API."""

from __future__ import annotations

import gc
import os
import sys
import threading
import weakref
from math import inf
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, ProcessError, SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_time_events_fire_in_schedule_order(self, sim):
        order = []
        for i in range(20):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(20))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), inf, -inf])
    def test_negative_and_non_finite_delays_are_rejected_before_anything_is_counted(self, sim, bad):
        """A NaN on a heap is not an error, it is a silently broken order."""
        sim.schedule(5.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert len(sim._queue) == sim._queue.buffered == 1
        assert sim.run() == 5.0 and sim.events_processed == 1

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), inf])
    @pytest.mark.parametrize("bounds", [{}, {"until": 100.0}])
    def test_hold_and_wake_reject_non_finite_delays(self, sim, bad, bounds):
        raised = []

        def body():
            proc = sim.current_process
            for blocking in (lambda: proc.hold(bad), lambda: proc.wake(delay=bad)):
                with pytest.raises(SimulationError) as error:
                    blocking()
                raised.append(error.type)

        sim.spawn(body)
        assert sim.run(**bounds) == 0.0  # the clock never saw the bad value
        assert raised == [SimulationError, SimulationError]

    def test_cancel_prevents_firing(self, sim):
        calls = []
        event = sim.schedule(1.0, lambda: calls.append(1))
        sim.cancel(event)
        sim.run()
        assert calls == []

    def test_run_until_stops_clock(self, sim):
        calls = []
        sim.schedule(1.0, lambda: calls.append(1))
        sim.schedule(10.0, lambda: calls.append(2))
        sim.run(until=5.0)
        assert calls == [1]
        assert sim.now == 5.0
        sim.run()
        assert calls == [1, 2]

    def test_run_max_events(self, sim):
        calls = []
        for i in range(10):
            sim.schedule(float(i), calls.append, i)
        sim.run(max_events=3)
        assert calls == [0, 1, 2]

    def test_events_scheduled_during_run_are_processed(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("nested"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "nested"]
        assert sim.now == 2.0

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestProcesses:
    def test_process_runs_and_returns_result(self, sim):
        def body(proc):
            proc.hold(2.0)
            return "done"

        proc = sim.spawn(lambda: body(proc_holder[0]))
        proc_holder = [proc]
        sim.run()
        assert proc.finished
        assert proc.result == "done"
        assert sim.now == 2.0

    def test_spawn_passes_arguments(self, sim):
        results = []

        def body(a, b, c=0):
            results.append(a + b + c)

        sim.spawn(body, 1, 2, c=3)
        sim.run()
        assert results == [6]

    def test_hold_advances_virtual_time(self, sim):
        times = []

        def body():
            proc = sim.current_process
            proc.hold(1.5)
            times.append(sim.now)
            proc.hold(2.5)
            times.append(sim.now)

        sim.spawn(body)
        sim.run()
        assert times == [1.5, 4.0]

    def test_compute_is_lazy_until_flush(self, sim):
        observed = []

        def body():
            proc = sim.current_process
            proc.compute(100, unit_time=0.01)
            observed.append(sim.now)           # global clock not yet advanced
            observed.append(proc.local_time)   # but local time reflects the work
            proc.flush()
            observed.append(sim.now)

        sim.spawn(body)
        sim.run()
        assert observed[0] == 0.0
        assert observed[1] == pytest.approx(1.0)
        assert observed[2] == pytest.approx(1.0)

    def test_two_processes_interleave_in_virtual_time(self, sim):
        log = []

        def body(name, step):
            proc = sim.current_process
            for _ in range(3):
                proc.hold(step)
                log.append((name, sim.now))

        sim.spawn(body, "fast", 1.0)
        sim.spawn(body, "slow", 2.0)
        sim.run()
        assert log == [
            ("fast", 1.0),
            ("slow", 2.0),
            ("fast", 2.0),
            ("fast", 3.0),
            ("slow", 4.0),
            ("slow", 6.0),
        ]

    def test_process_exception_propagates(self, sim):
        def body():
            raise ValueError("boom")

        sim.spawn(body)
        with pytest.raises(ProcessError, match="boom"):
            sim.run()

    def test_join_returns_result(self, sim):
        results = []

        def child():
            sim.current_process.hold(3.0)
            return 99

        def parent():
            proc = sim.current_process
            child_proc = sim.spawn(child)
            results.append(proc.join(child_proc))
            results.append(sim.now)

        sim.spawn(parent)
        sim.run()
        assert results == [99, 3.0]

    def test_join_already_finished_process(self, sim):
        results = []

        def child():
            return 7

        def parent():
            proc = sim.current_process
            child_proc = sim.spawn(child)
            proc.hold(10.0)
            results.append(proc.join(child_proc))

        sim.spawn(parent)
        sim.run()
        assert results == [7]

    def test_suspend_and_wake(self, sim):
        log = []

        def sleeper():
            proc = sim.current_process
            value = proc.suspend()
            log.append((value, sim.now))

        sleeper_proc = sim.spawn(sleeper)
        sim.schedule(5.0, lambda: sleeper_proc.wake("hello"))
        sim.run()
        assert log == [("hello", 5.0)]

    def test_deadlock_detection(self, sim):
        def stuck():
            sim.current_process.suspend()

        sim.spawn(stuck)
        with pytest.raises(DeadlockError):
            sim.run()

    def test_daemon_processes_do_not_trigger_deadlock(self, sim):
        def stuck():
            sim.current_process.suspend()

        sim.spawn(stuck, daemon=True)
        sim.run()  # should not raise

    def test_shutdown_kills_blocked_processes(self):
        with Simulator() as sim:
            def stuck():
                sim.current_process.suspend()

            proc = sim.spawn(stuck, daemon=True)
            sim.run()
            assert proc.state == "blocked"
        assert proc.state == "killed"

    def test_run_until_complete_raises_for_live_processes(self, sim):
        def stuck():
            sim.current_process.suspend()

        proc = sim.spawn(stuck, daemon=True)
        with pytest.raises(DeadlockError):
            sim.run_until_complete([proc])

    def test_on_completion_callback(self, sim):
        seen = []

        def body():
            sim.current_process.hold(1.0)
            return 5

        proc = sim.spawn(body)
        proc.on_completion(lambda p: seen.append(p.result))
        sim.run()
        assert seen == [5]

    def test_a_process_nobody_waits_for_ends_without_an_event(self, sim):
        queued = []

        def body():
            queued.append(len(sim._queue))

        proc = sim.spawn(body, daemon=True)
        sim.schedule(1.0, lambda: queued.append(len(sim._queue)))
        sim.run()
        # Only the callback was queued when the body ended, and nothing after it.
        assert proc.finished and queued == [1, 0]
        assert sim.events_processed == 2  # the start and the callback

    def test_pending_compute_of_an_unjoined_process_still_reaches_the_clock(self, sim):
        def body():
            sim.current_process.hold(1.0)
            sim.current_process.advance(0.5)

        sim.spawn(body)
        assert sim.run() == 1.5

    def test_a_waiter_registered_before_the_end_is_called_at_the_local_time(self, sim):
        seen = []

        def body():
            sim.current_process.hold(1.0)
            sim.current_process.advance(0.5)
            return "done"

        sim.spawn(body).on_completion(lambda p: seen.append((sim.now, p.result)))
        sim.run()
        assert seen == [(1.5, "done")]

    def test_determinism_across_runs(self):
        """The same program produces an identical event interleaving every run."""

        def run_once():
            log = []
            with Simulator(seed=3) as sim:
                def body(name, step, count):
                    proc = sim.current_process
                    for i in range(count):
                        proc.hold(step)
                        log.append((name, round(sim.now, 9), i))

                sim.spawn(body, "a", 0.3, 5)
                sim.spawn(body, "b", 0.5, 4)
                sim.spawn(body, "c", 0.2, 6)
                sim.run()
            return log

        assert run_once() == run_once()


class TestCarriers:
    """Processes borrow pooled carrier threads; shutdown ends every one of them."""

    @staticmethod
    def _populate(sim):
        """One process of each kind a shutdown has to cope with."""

        def blocked():
            sim.current_process.suspend()

        def finished():
            sim.current_process.hold(1.0)

        def failing():
            sim.current_process.hold(1.0)
            raise ValueError("daemon failure")

        on_crashed_node = sim.spawn(blocked, daemon=True)
        on_crashed_node.node = SimpleNamespace(alive=False)
        procs = {
            "blocked": sim.spawn(blocked, daemon=True),
            "finished": sim.spawn(finished),
            "failed": sim.spawn(failing, daemon=True),
            "crashed-node": on_crashed_node,
            "never-started": sim.spawn(finished, start_delay=100.0),
        }
        sim.run(until=10.0)
        assert {kind: proc.state for kind, proc in procs.items()} == {
            "blocked": "blocked",
            "finished": "finished",
            "failed": "failed",
            "crashed-node": "blocked",
            "never-started": "ready",
        }
        return procs

    def test_shutdown_ends_every_carrier(self):
        before = threading.active_count()
        sim = Simulator()
        procs = self._populate(sim)
        assert threading.active_count() > before
        sim.shutdown()
        assert threading.active_count() == before
        assert not any(proc.alive for proc in procs.values())
        sim.shutdown()  # idempotent
        assert threading.active_count() == before

    def test_context_manager_ends_every_carrier(self):
        before = threading.active_count()
        with Simulator() as sim:
            self._populate(sim)
        assert threading.active_count() == before

    def test_fifty_simulators_in_a_row_leave_no_thread(self):
        before = threading.active_count()
        for _ in range(50):
            with Simulator() as sim:
                self._populate(sim)
        assert threading.active_count() == before

    def test_short_lived_processes_share_carriers(self, sim):
        """1 000 processes, two alive at a time: two carriers, not 1 000."""
        threads = set()
        alive = [0, 0]  # now, most ever

        def body():
            threads.add(threading.get_ident())
            alive[0] += 1
            alive[1] = max(alive)
            sim.current_process.hold(0.001)
            alive[0] -= 1

        def driver():
            threads.add(threading.get_ident())
            alive[0] += 1
            for _ in range(1000):
                sim.current_process.join(sim.spawn(body))

        before = threading.active_count()
        sim.spawn(driver)
        sim.run()
        assert len(sim.processes) == 1001
        assert alive[1] == 2
        assert len(threads) <= alive[1]
        assert threading.active_count() - before <= alive[1]

    def test_a_finished_process_lets_go_of_its_body_and_arguments(self, sim):
        """``sim.processes`` keeps every process until shutdown; not what it ran on."""

        class Request:
            pass

        def handler(request, reply=None):
            sim.current_process.hold(1.0)

        requests = []
        for _ in range(50):
            request = Request()
            requests.append(weakref.ref(request))
            sim.spawn(handler, request, reply=request)
        del request
        sim.run(until=5.0)
        gc.collect()
        assert len(sim.processes) == 50 and all(p.finished for p in sim.processes)
        assert [ref() for ref in requests] == [None] * 50

    def test_a_body_that_raises_returns_its_carrier(self, sim):
        threads = []

        def failing():
            threads.append(threading.get_ident())
            raise ValueError("boom")

        def later():
            threads.append(threading.get_ident())

        before = threading.active_count()
        sim.spawn(failing, daemon=True)
        sim.spawn(failing, start_delay=1.0)
        sim.spawn(later, start_delay=2.0)
        with pytest.raises(ProcessError, match="boom"):
            sim.run()
        sim.run()
        assert len(threads) == 3 and len(set(threads)) == 1
        assert threading.active_count() == before + 1


class _CountingLock:
    """Stands in for a carrier's raw lock and counts what is done to it."""

    def __init__(self, lock):
        self._lock = lock
        self.operations = 0

    def acquire(self):
        self.operations += 1
        return self._lock.acquire()

    def release(self):
        self.operations += 1
        self._lock.release()


# A process is a list of steps; durations come from a small set so that equal
# timestamps (ties broken by schedule order) are the rule, not the exception.
_durations = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
_leaf_steps = st.one_of(
    st.tuples(st.just("hold"), _durations),
    st.tuples(st.just("nap"), _durations),  # suspend; a plain callback wakes
    st.tuples(st.just("relay"), _durations),  # suspend; a helper process wakes
)
_steps = st.recursive(
    st.lists(_leaf_steps, max_size=4),
    lambda body: st.lists(
        st.one_of(
            _leaf_steps,
            st.tuples(st.just("spawn-join"), body),
            st.tuples(st.just("spawn"), body),
        ),
        max_size=4,
    ),
    max_leaves=12,
)
_programs = st.tuples(
    st.lists(st.tuples(_durations, _steps), min_size=1, max_size=4),  # (start delay, steps)
    st.lists(_durations, max_size=6),  # plain callbacks
)


def _run_program(program, **run_kwargs):
    """Run ``program``; returns its ``(time, name)`` trace, final time and event count."""
    processes, callbacks = program
    run_caller = threading.get_ident()
    trace = []
    with Simulator() as sim:

        def callback(name):
            # Fired by whichever thread holds control - the run() caller or a
            # carrier whose process blocked or ended - and never *as* a process.
            assert sim.current_process is None
            here = threading.current_thread()
            assert here.ident == run_caller or here.name == "sim-carrier"
            trace.append((sim.now, name))

        def body(name, steps):
            proc = sim.current_process
            trace.append((sim.now, name))
            for index, (kind, arg) in enumerate(steps):
                step = f"{name}.{index}"
                if kind == "hold":
                    proc.hold(arg)
                elif kind == "nap":
                    sim.schedule(arg, proc.wake, step)
                    assert proc.suspend() == step
                elif kind == "relay":

                    def helper(delay=arg, value=step):
                        sim.current_process.hold(delay)
                        proc.wake(value)

                    sim.spawn(helper)
                    assert proc.suspend() == step
                elif kind == "spawn-join":
                    assert proc.join(sim.spawn(body, step, arg)) == step
                else:
                    sim.spawn(body, step, arg)
                trace.append((sim.now, step))
            return name

        for index, (delay, steps) in enumerate(processes):
            sim.spawn(body, f"p{index}", steps, start_delay=delay)
        for index, delay in enumerate(callbacks):
            sim.schedule(delay, callback, f"c{index}")
        final = sim.run(**run_kwargs)
        assert all(proc.finished for proc in sim.processes)
        return trace, final, sim.events_processed


class TestHandOff:
    """Who fires which event, and on which thread."""

    @settings(max_examples=60, deadline=None)
    @given(_programs)
    def test_bounded_and_unbounded_runs_agree(self, program):
        """One hand-off serves all three kinds of run.

        The unbounded run may fire *fewer* events, never different ones: its
        ``hold()`` skips the resume event when nothing else can fire first.
        """
        trace, final, fired = _run_program(program)
        by_time = _run_program(program, until=inf)
        by_count = _run_program(program, max_events=10**9)
        assert by_time == by_count
        assert (trace, final) == by_time[:2]
        assert fired <= by_time[2]

    def test_process_failure_surfaces_from_run_and_stops_it(self, sim):
        log = []

        def walker(name):
            for _ in range(3):
                sim.current_process.hold(1.0)
                log.append((sim.now, name))
                sim.schedule(1.0, log.append, f"callback scheduled by {name}")

        def failing():
            sim.current_process.hold(2.0)
            raise ValueError("boom")

        sim.spawn(walker, "first")
        sim.spawn(failing)
        sim.spawn(walker, "second")
        sim.schedule(2.0, log.append, "callback scheduled at the start")
        with pytest.raises(ProcessError, match="failing#1.*ValueError: boom") as raised:
            sim.run(until=10.0)  # bounded: every hold is a real hand-off between carriers
        assert isinstance(raised.value.__cause__, ValueError)
        # At 2.0 the callback scheduled first fires, then the failing process
        # resumes; the walkers' resumes and callbacks queued behind it do not fire.
        assert log == [(1.0, "first"), (1.0, "second"), "callback scheduled at the start"]
        assert sim.now == 2.0

    def test_callback_exception_after_a_yield_surfaces_unchanged(self, sim):
        where = []
        later = []

        def callback():
            where.append((threading.get_ident(), sim.current_process))
            raise KeyError("from the callback")

        def body():
            where.append(threading.get_ident())
            sim.schedule(1.0, callback)
            sim.schedule(1.5, later.append, "fired")
            sim.current_process.hold(2.0)  # the next event is the callback

        proc = sim.spawn(body)
        with pytest.raises(KeyError, match="from the callback") as raised:
            sim.run()
        assert type(raised.value) is KeyError and raised.value.args == ("from the callback",)
        # Fired by the thread that held control - the blocked process's carrier,
        # above its frames - but as kernel context, and raised from run() here.
        assert where == [where[0], (where[0], None)] and where[0] != threading.get_ident()
        assert later == [] and sim.now == 1.0
        assert proc.state == "blocked" and proc.exception is None

    def test_resume_of_an_unresumable_process_surfaces_unchanged(self, sim):
        def sleeper():
            sim.current_process.suspend()

        def waker():
            sleeper_proc.wake()
            sleeper_proc.wake()  # fires when the sleeper has already finished

        sleeper_proc = sim.spawn(sleeper)
        waker_proc = sim.spawn(waker)
        with pytest.raises(SimulationError, match="cannot resume"):
            sim.run()
        assert waker_proc.finished and sleeper_proc.finished

    @pytest.mark.parametrize("bounds", [{}, {"until": 1e9}])
    def test_only_one_thread_ever_runs(self, sim, bounds):
        """Stress: 24 processes and a callback chain, preempted every few bytecodes.

        ``inside`` is read, modified and written back with work in between; a
        second thread running at the same time would find it non-zero or
        lose an update to ``total``.
        """
        inside = [0]
        total = [0]

        def critical():
            assert inside[0] == 0
            inside[0] += 1
            before = total[0]
            for _ in range(50):
                pass
            total[0] = before + 1
            inside[0] -= 1

        def body(step):
            proc = sim.current_process
            for turn in range(100):
                critical()
                if turn % 3:
                    proc.hold(step)
                else:
                    sim.schedule(step, proc.wake)
                    proc.suspend()

        def tick(left):
            critical()
            if left:
                sim.schedule(0.5, tick, left - 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for index in range(24):
                sim.spawn(body, 0.5 + index % 3)
            sim.schedule(0.0, tick, 400)
            sim.run(**bounds)
        finally:
            sys.setswitchinterval(interval)
        assert total[0] == 24 * 100 + 401 and inside[0] == 0

    @pytest.mark.parametrize("bounds", [{"until": 100.0}, {"max_events": 1000}])
    def test_hold_resumed_by_the_very_next_event_switches_no_thread(self, sim, bounds):
        seen = []

        def body():
            proc = sim.current_process
            lock = proc._lock = _CountingLock(proc._lock)
            for _ in range(5):
                proc.hold(1.0)  # bounded run: no fast path, the resume is a real event
                seen.append((threading.get_ident(), lock.operations))

        sim.spawn(body)
        sim.run(**bounds)
        # The start and five resumes.  The seventh event, the completion notice,
        # went: nobody waits for this process and it ends with no pending compute.
        assert sim.events_processed == 6
        assert seen == [(seen[0][0], 0)] * 5
        assert seen[0][0] != threading.get_ident()

    def test_a_chain_of_plain_callbacks_waking_the_process_that_fired_them_touches_no_lock(
        self, sim
    ):
        seen = []

        def chain(proc, left):
            seen.append(threading.get_ident())
            if left:
                sim.schedule(1.0, chain, proc, left - 1)
            else:
                proc.wake("woken")

        def body():
            proc = sim.current_process
            lock = proc._lock = _CountingLock(proc._lock)
            sim.schedule(1.0, chain, proc, 2)
            seen.append((proc.suspend(), lock.operations, threading.get_ident()))

        sim.spawn(body)
        sim.run()
        carrier = seen[-1][2]
        assert seen == [carrier] * 3 + [("woken", 0, carrier)] and sim.now == 3.0

    def test_an_rpc_shaped_exchange_makes_exactly_two_hand_offs(self, sim):
        """Client suspends -> callback -> handler starts -> handler ends -> callback -> client."""

        def warm():
            sim.current_process.hold(1.0)

        sim.spawn(warm)
        sim.spawn(warm)
        sim.run(until=10.0)  # bounded: both really block, so two carriers exist
        assert len(sim._idle) == 2
        for carrier in sim._idle:
            carrier.lock = _CountingLock(carrier.lock)
        kernel_lock = sim._kernel_lock = _CountingLock(sim._kernel_lock)
        locks = [kernel_lock] + [carrier.lock for carrier in sim._idle]
        counts = []

        def operations():
            return [lock.operations for lock in locks]

        def handler():
            sim.schedule(1.0, client_proc.wake, "reply")  # the reply's delivery

        def client():
            sim.schedule(1.0, sim.spawn, handler)  # the request's delivery
            counts.append(operations())
            assert sim.current_process.suspend() == "reply"
            counts.append(operations())

        client_proc = sim.spawn(client)
        sim.run()
        assert len(sim.processes) == 4 and len(sim._idle) == 2  # no third carrier
        before, after = counts
        assert after[0] == before[0]  # the run() caller slept through it
        # One hand-off is a release of the next carrier's lock and an acquire
        # of one's own: client -> handler, handler -> client.
        assert sum(after) - sum(before) == 4

    def test_callbacks_fire_above_the_frames_of_a_process_blocked_deep(self, sim):
        depths = []

        def depth():
            frame, count = sys._getframe(1), 0
            while frame is not None:
                frame, count = frame.f_back, count + 1
            return count

        def chain(proc, left):
            if left:
                return chain(proc, left - 1)
            depths.append(depth())
            proc.wake()

        def dive(left):
            if left:
                return dive(left - 1)
            depths.append(depth())
            sim.schedule(1.0, chain, sim.current_process, 20)
            sim.current_process.suspend()
            return "surfaced"

        proc = sim.spawn(dive, 400)
        sim.run()
        assert proc.result == "surfaced"
        assert depths[0] > 400 and depths[1] > depths[0] + 20


def _fused(proc, value):
    proc.wake(value)


def _queued(proc, value):
    """What ``wake`` did before it could park: the resume as an event of its own."""
    proc.sim.schedule(0.0, proc._kernel_resume, value)


def _nap_program(wake, *, node=None, **run_kwargs):
    """A sleeper, a callback at 1.0 that wakes it through ``wake``, a timer at 2.0."""
    trace = []
    with Simulator() as sim:

        def sleeper():
            trace.append((sim.now, "asleep"))
            value = sim.current_process.suspend()
            trace.append((sim.now, value))

        def callback():
            trace.append((sim.now, "callback"))
            proc.node = node
            wake(proc, "woken")
            trace.append((sim.now, "callback returns"))

        proc = sim.spawn(sleeper)
        sim.schedule(1.0, callback)
        sim.schedule(2.0, trace.append, "timer")
        final = sim.run(**run_kwargs)
        assert sim._parked_wake is None
        return trace, final, proc.state, sim.events_processed


class TestFusedWake:
    """A callback's wake that would be the very next event is no event at all."""

    def test_a_wake_with_nothing_else_due_costs_no_event(self):
        fused, queued = _nap_program(_fused), _nap_program(_queued)
        assert fused[:3] == queued[:3]
        assert fused[0] == [
            (0.0, "asleep"),
            (1.0, "callback"),
            (1.0, "callback returns"),
            (1.0, "woken"),
            "timer",
        ]
        # The start, the callback, the timer; queued, the resume too.
        assert (fused[3], queued[3]) == (3, 4)

    def test_with_another_event_due_now_the_wake_queues_behind_it(self, sim):
        log = []

        def sleeper():
            log.append(sim.current_process.suspend())

        proc = sim.spawn(sleeper)
        sim.schedule(1.0, proc.wake, "woken")
        sim.schedule(1.0, log.append, "due at the same time")
        sim.run()
        assert log == ["due at the same time", "woken"]
        assert sim.events_processed == 4  # the resume is one of them

    def test_what_the_callback_schedules_after_the_wake_fires_after_the_process_ran(self, sim):
        log = []

        def sleeper():
            log.append(sim.current_process.suspend())

        def callback():
            proc.wake("woken")
            sim.schedule(0.0, log.append, "scheduled after the wake")

        proc = sim.spawn(sleeper)
        sim.schedule(1.0, callback)
        sim.run()
        assert log == ["woken", "scheduled after the wake"]
        assert sim.events_processed == 3

    def test_two_wakes_in_one_callback_resume_in_call_order(self, sim):
        log = []

        def sleeper():
            log.append(sim.current_process.suspend())

        def callback():
            first.wake("first")
            second.wake("second")
            assert sim._parked_wake == (first, "first") and len(sim._queue) == 1

        second = sim.spawn(sleeper)
        first = sim.spawn(sleeper)
        sim.schedule(1.0, callback)
        sim.run()
        assert log == ["first", "second"]
        assert sim.events_processed == 4  # two starts, the callback, the second resume

    def test_every_other_wake_goes_through_the_queue(self, sim):
        log = []

        def sleeper():
            proc = sim.current_process
            for _ in range(4):
                value = proc.suspend()
                log.append((sim.now, value))

        def delayed():
            proc.wake("delayed", delay=0.5)
            assert sim._parked_wake is None and len(sim._queue) == 3  # + waker's hold, timer

        def waker():
            sim.current_process.hold(3.0)
            proc.wake("from a process")
            assert sim._parked_wake is None and len(sim._queue) == 2

        proc = sim.spawn(sleeper)
        proc.wake("before run()")  # fires behind the start it was scheduled after
        assert sim._parked_wake is None and len(sim._queue) == 2
        sim.schedule(1.0, delayed)
        sim.schedule(6.0, lambda: None)  # keeps both bounded runs from draining the queue
        sim.spawn(waker)
        assert sim.run(until=4.0) == 4.0
        proc.wake("between two runs")
        assert sim._parked_wake is None and len(sim._queue) == 2
        sim.run(until=5.0)
        assert log == [
            (0.0, "before run()"),
            (1.5, "delayed"),
            (3.0, "from a process"),
            (4.0, "between two runs"),
        ]

    def test_a_process_woken_on_a_dead_node_unwinds_as_through_the_queue(self):
        dead = SimpleNamespace(alive=False)
        fused, queued = _nap_program(_fused, node=dead), _nap_program(_queued, node=dead)
        assert fused[:3] == queued[:3]
        trace, _final, state, _events = fused
        assert state == "killed" and (1.0, "woken") not in trace

    def test_a_callback_that_raises_after_the_wake_leaves_nothing_parked(self, sim):
        log = []

        def sleeper():
            log.append(sim.current_process.suspend())

        def callback():
            proc.wake("woken")
            raise KeyError("after the wake")

        proc = sim.spawn(sleeper)
        sim.schedule(1.0, callback)
        with pytest.raises(KeyError, match="after the wake"):
            sim.run()
        # The wake is back in the queue, where it would have been: not lost, not parked.
        assert sim._parked_wake is None and len(sim._queue) == 1
        assert proc.state == "blocked" and log == []
        sim.run()
        assert log == ["woken"] and proc.finished

    def test_bounded_runs_stop_where_they_say_with_the_slot_empty(self):
        # max_events: the start and the callback; the resume it fused is no event.
        trace, final, state, events = _nap_program(_fused, max_events=2)
        assert (final, state, events) == (1.0, "finished", 2)
        assert trace[-1] == (1.0, "woken")
        # until: everything due by 1.0 fires, the process runs at 1.0, the timer does not.
        trace, final, state, events = _nap_program(_fused, until=1.0)
        assert (final, state, events) == (1.0, "finished", 2)
        assert trace[-1] == (1.0, "woken")
        trace, final, state, events = _nap_program(_fused, until=0.5)
        assert (final, state, events) == (0.5, "blocked", 1)


class TestOneArena:
    """glibc is bound to one malloc arena before the first carrier, where it can be."""

    @pytest.fixture
    def libc_calls(self, monkeypatch):
        import ctypes

        from repro.sim import process

        calls = []

        def install(cdll):
            def recording(name):
                calls.append(name)
                return cdll(name)

            monkeypatch.setattr(process, "_arenas_bounded", False)
            monkeypatch.setattr(ctypes, "CDLL", recording)
            return calls

        return install

    @staticmethod
    def _one_process_runs():
        with Simulator() as sim:
            proc = sim.spawn(lambda: sim.current_process.hold(1.0))
            sim.run(until=5.0)
            assert proc.finished

    def test_bounds_the_arenas_once_per_os_process(self, libc_calls):
        mallopts = []
        calls = libc_calls(lambda name: SimpleNamespace(mallopt=lambda *a: mallopts.append(a)))
        self._one_process_runs()
        self._one_process_runs()
        assert calls == [None] and mallopts == [(-8, 1)]  # M_ARENA_MAX, 1

    def test_no_libc_to_load_is_skipped_silently(self, libc_calls):
        def no_libc(name):
            raise OSError("no libc here")

        calls = libc_calls(no_libc)
        self._one_process_runs()
        assert calls == [None]

    def test_a_libc_without_mallopt_is_skipped_silently(self, libc_calls):
        calls = libc_calls(lambda name: object())
        self._one_process_runs()
        assert calls == [None]


needs_sched_batch = pytest.mark.skipif(
    not hasattr(os, "SCHED_BATCH") or os.sched_getscheduler(0) != os.SCHED_OTHER,
    reason="needs Linux scheduling policies and a host running the tests under SCHED_OTHER",
)


class TestCarrierPolicy:
    """Carriers put themselves under SCHED_BATCH, where they can; nobody else is touched."""

    @staticmethod
    def _trace(in_body=lambda: None):
        """Three processes holding in turn; the ``(time, name)`` of every step."""
        steps = []
        with Simulator(seed=5) as sim:

            def body(period):
                proc = sim.current_process
                in_body()
                for _ in range(3):
                    proc.hold(period)
                    steps.append((sim.now, proc.name))

            for index, period in enumerate((1.0, 1.5, 2.5)):
                sim.spawn(body, period, name=f"p{index}")
            sim.run(until=20.0)  # bounded: every hold is a real hand-off
        return steps

    @needs_sched_batch
    def test_a_process_body_runs_under_sched_batch(self):
        seen = []
        self._trace(lambda: seen.append(os.sched_getscheduler(0)))
        assert seen == [os.SCHED_BATCH] * 3

    @needs_sched_batch
    def test_the_run_callers_policy_is_left_alone(self):
        # This thread fires the first start event, so it creates the first carrier.
        assert self._trace() and os.sched_getscheduler(0) == os.SCHED_OTHER

    @needs_sched_batch
    def test_a_thread_started_from_a_process_body_inherits_and_can_opt_out(self):
        seen = []

        def child():
            seen.append(os.sched_getscheduler(0))
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
            seen.append(os.sched_getscheduler(0))

        def in_body():
            thread = threading.Thread(target=child)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive()

        self._trace(in_body)
        assert seen == [os.SCHED_BATCH, os.SCHED_OTHER] * 3

    def test_a_refused_call_is_skipped_silently(self, monkeypatch):
        expected = self._trace()

        def refused(*args):
            raise PermissionError("not allowed here")

        monkeypatch.setattr(os, "sched_setscheduler", refused, raising=False)
        assert self._trace() == expected

    def test_a_platform_without_the_call_is_skipped_silently(self, monkeypatch):
        expected = self._trace()
        monkeypatch.delattr(os, "sched_setscheduler", raising=False)
        assert self._trace() == expected

    @needs_sched_batch
    def test_a_carrier_that_starts_under_another_policy_is_left_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_getscheduler", lambda pid: os.SCHED_IDLE)
        monkeypatch.setattr(os, "sched_setscheduler", lambda *args: calls.append(args))
        assert self._trace() and calls == []


class TestRng:
    def test_streams_are_independent_and_reproducible(self):
        sim1 = Simulator(seed=99)
        sim2 = Simulator(seed=99)
        a1 = [sim1.rng.stream("a").random() for _ in range(5)]
        # Interleave another stream in sim2 before drawing from "a".
        [sim2.rng.stream("b").random() for _ in range(5)]
        a2 = [sim2.rng.stream("a").random() for _ in range(5)]
        assert a1 == a2

    def test_different_seeds_give_different_streams(self):
        sim1 = Simulator(seed=1)
        sim2 = Simulator(seed=2)
        assert sim1.rng.stream("x").random() != sim2.rng.stream("x").random()

    def test_reset_restores_streams(self):
        sim = Simulator(seed=5)
        first = [sim.rng.stream("x").random() for _ in range(3)]
        sim.rng.reset()
        second = [sim.rng.stream("x").random() for _ in range(3)]
        assert first == second
