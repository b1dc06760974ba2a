"""Tests for the simulation semaphore."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import SimSemaphore


class TestSimSemaphore:
    def test_acquire_release(self, sim):
        sem = SimSemaphore(sim, value=1)
        log = []

        def worker(name):
            sem.acquire()
            log.append((name, sim.now))
            sim.current_process.hold(2.0)
            sem.release()

        sim.spawn(worker, "a")
        sim.spawn(worker, "b")
        sim.run()
        assert log == [("a", 0.0), ("b", 2.0)]

    def test_initial_value_counts(self, sim):
        sem = SimSemaphore(sim, value=3)
        done = []

        def worker(i):
            sem.acquire()
            done.append(i)

        for i in range(3):
            sim.spawn(worker, i)
        sim.run()
        assert len(done) == 3
        assert sem.value == 0

    def test_negative_initial_value_rejected(self, sim):
        with pytest.raises(SimulationError):
            SimSemaphore(sim, value=-1)

    def test_release_before_acquire(self, sim):
        sem = SimSemaphore(sim, value=0)
        log = []

        def producer():
            sem.release(2)

        def consumer():
            sim.current_process.hold(1.0)
            sem.acquire()
            sem.acquire()
            log.append("got-both")

        sim.spawn(producer)
        sim.spawn(consumer)
        sim.run()
        assert log == ["got-both"]

    def test_outside_process_rejected(self, sim):
        sem = SimSemaphore(sim, value=1)
        with pytest.raises(SimulationError):
            sem.acquire()

    def test_waiters_wake_in_arrival_order(self, sim):
        sem = SimSemaphore(sim, value=0)
        order = []

        def waiter(name, arrive):
            sim.current_process.hold(arrive)
            sem.acquire()
            order.append(name)

        def releaser():
            sim.current_process.hold(5.0)
            sem.release(3)

        sim.spawn(waiter, "third", 3.0)
        sim.spawn(waiter, "first", 1.0)
        sim.spawn(waiter, "second", 2.0)
        sim.spawn(releaser)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_to_a_waiter_leaves_the_value_at_zero(self, sim):
        sem = SimSemaphore(sim, value=0)
        seen = []

        def waiter():
            sem.acquire()
            seen.append(sem.value)

        def releaser():
            sim.current_process.hold(1.0)
            sem.release()
            seen.append(sem.value)

        sim.spawn(waiter)
        sim.spawn(releaser)
        sim.run()
        assert seen == [0, 0]

    def test_release_beyond_the_waiters_banks_the_rest(self, sim):
        sem = SimSemaphore(sim, value=0)
        woken = []

        def waiter():
            sem.acquire()
            woken.append(sim.now)

        def releaser():
            sim.current_process.hold(1.0)
            sem.release(3)

        sim.spawn(waiter)
        sim.spawn(releaser)
        sim.run()
        assert woken == [1.0]
        assert sem.value == 2

    def test_value_bounds_the_processes_inside(self, sim):
        sem = SimSemaphore(sim, value=2)
        inside = []
        peak = []

        def worker(i):
            sem.acquire()
            inside.append(i)
            peak.append(len(inside))
            sim.current_process.hold(1.0)
            inside.remove(i)
            sem.release()

        for i in range(5):
            sim.spawn(worker, i)
        sim.run()
        assert max(peak) == 2
        assert sim.now == 3.0
        assert sem.value == 2
