"""Tests for simulation synchronization primitives."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Barrier, SimCondition, SimLock, SimSemaphore


class TestSimLock:
    def test_mutual_exclusion(self, sim):
        lock = SimLock(sim)
        log = []

        def worker(name):
            proc = sim.current_process
            with lock:
                log.append(f"{name}-in")
                proc.hold(1.0)
                log.append(f"{name}-out")

        sim.spawn(worker, "a")
        sim.spawn(worker, "b")
        sim.run()
        assert log == ["a-in", "a-out", "b-in", "b-out"]

    def test_fifo_handoff(self, sim):
        lock = SimLock(sim)
        order = []

        def holder():
            with lock:
                sim.current_process.hold(5.0)

        def waiter(name, arrive):
            proc = sim.current_process
            proc.hold(arrive)
            with lock:
                order.append(name)

        sim.spawn(holder)
        sim.spawn(waiter, "first", 1.0)
        sim.spawn(waiter, "second", 2.0)
        sim.spawn(waiter, "third", 3.0)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_by_non_owner_rejected(self, sim):
        lock = SimLock(sim)

        def bad():
            lock.release()

        sim.spawn(bad)
        with pytest.raises(Exception):
            sim.run()

    def test_reacquire_rejected(self, sim):
        lock = SimLock(sim)

        def bad():
            lock.acquire()
            lock.acquire()

        sim.spawn(bad)
        with pytest.raises(Exception):
            sim.run()

    def test_outside_process_rejected(self, sim):
        lock = SimLock(sim)
        with pytest.raises(SimulationError):
            lock.acquire()


class TestSimCondition:
    def test_wait_notify(self, sim):
        lock = SimLock(sim)
        cond = SimCondition(lock)
        log = []
        state = {"ready": False}

        def consumer():
            with lock:
                cond.wait_for(lambda: state["ready"])
                log.append(("consumed", sim.now))

        def producer():
            proc = sim.current_process
            proc.hold(3.0)
            with lock:
                state["ready"] = True
                cond.notify()

        sim.spawn(consumer)
        sim.spawn(producer)
        sim.run()
        assert log == [("consumed", 3.0)]

    def test_notify_all(self, sim):
        lock = SimLock(sim)
        cond = SimCondition(lock)
        woken = []
        state = {"go": False}

        def waiter(name):
            with lock:
                cond.wait_for(lambda: state["go"])
                woken.append(name)

        def signaler():
            sim.current_process.hold(1.0)
            with lock:
                state["go"] = True
                cond.notify_all()

        for i in range(3):
            sim.spawn(waiter, i)
        sim.spawn(signaler)
        sim.run()
        assert sorted(woken) == [0, 1, 2]

    def test_wait_without_lock_rejected(self, sim):
        lock = SimLock(sim)
        cond = SimCondition(lock)

        def bad():
            cond.wait()

        sim.spawn(bad)
        with pytest.raises(Exception):
            sim.run()


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


class TestBarrier:
    def test_all_parties_released_together(self, sim):
        barrier = Barrier(sim, parties=3)
        release_times = []

        def worker(delay):
            proc = sim.current_process
            proc.hold(delay)
            barrier.wait()
            release_times.append(sim.now)

        sim.spawn(worker, 1.0)
        sim.spawn(worker, 2.0)
        sim.spawn(worker, 5.0)
        sim.run()
        assert release_times == [5.0, 5.0, 5.0]

    def test_barrier_is_reusable(self, sim):
        barrier = Barrier(sim, parties=2)
        generations = []

        def worker():
            generations.append(barrier.wait())
            generations.append(barrier.wait())

        sim.spawn(worker)
        sim.spawn(worker)
        sim.run()
        assert sorted(generations) == [0, 0, 1, 1]

    def test_invalid_parties(self, sim):
        with pytest.raises(SimulationError):
            Barrier(sim, parties=0)
