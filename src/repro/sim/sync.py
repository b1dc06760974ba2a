"""Synchronization primitives for simulated processes.

All primitives use FIFO wait queues so that wake-up order is deterministic.
They may only be used from within a :class:`~repro.sim.process.SimProcess`
(the process must currently hold control).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator
    from .process import SimProcess


def _current(sim: "Simulator") -> "SimProcess":
    proc = sim.current_process
    if proc is None:
        raise SimulationError("synchronization primitive used outside a SimProcess")
    return proc


class SimLock:
    """A mutual-exclusion lock with FIFO handoff."""

    def __init__(self, sim: "Simulator", name: str = "lock") -> None:
        self.sim = sim
        self.name = name
        self._owner: Optional["SimProcess"] = None
        self._waiters: Deque["SimProcess"] = deque()

    @property
    def locked(self) -> bool:
        return self._owner is not None

    @property
    def owner(self) -> Optional["SimProcess"]:
        return self._owner

    def acquire(self) -> None:
        """Acquire the lock, blocking the calling process if it is held."""
        proc = _current(self.sim)
        if self._owner is proc:
            raise SimulationError(f"process {proc.name!r} re-acquired lock {self.name!r}")
        if self._owner is None:
            self._owner = proc
            return
        self._waiters.append(proc)
        proc.suspend()
        if self._owner is not proc:
            raise SimulationError("lock handoff error")

    def release(self) -> None:
        """Release the lock, handing it to the longest-waiting process if any."""
        proc = _current(self.sim)
        if self._owner is not proc:
            raise SimulationError(
                f"process {proc.name!r} released lock {self.name!r} it does not own"
            )
        if self._waiters:
            nxt = self._waiters.popleft()
            self._owner = nxt
            nxt.wake()
        else:
            self._owner = None

    def __enter__(self) -> "SimLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class SimCondition:
    """A condition variable associated with a :class:`SimLock`."""

    def __init__(self, lock: SimLock, name: str = "cond") -> None:
        self.lock = lock
        self.sim = lock.sim
        self.name = name
        self._waiters: Deque["SimProcess"] = deque()

    def wait(self) -> None:
        """Atomically release the lock, block, and re-acquire on wake-up."""
        proc = _current(self.sim)
        if self.lock.owner is not proc:
            raise SimulationError("wait() called without holding the lock")
        self._waiters.append(proc)
        self.lock.release()
        proc.suspend()
        self.lock.acquire()

    def wait_for(self, predicate: Callable[[], bool]) -> None:
        """Wait until ``predicate()`` is true (re-checked after every wake-up)."""
        while not predicate():
            self.wait()

    def notify(self, n: int = 1) -> None:
        """Wake up to ``n`` waiting processes (FIFO order)."""
        for _ in range(min(n, len(self._waiters))):
            proc = self._waiters.popleft()
            proc.wake()

    def notify_all(self) -> None:
        """Wake every waiting process."""
        self.notify(len(self._waiters))


class SimSemaphore:
    """A counting semaphore with FIFO wake-up order."""

    def __init__(self, sim: "Simulator", value: int = 0, name: str = "sem") -> None:
        if value < 0:
            raise SimulationError("semaphore initial value must be non-negative")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: Deque["SimProcess"] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> None:
        """Decrement the semaphore, blocking while its value is zero."""
        proc = _current(self.sim)
        if self._value > 0:
            self._value -= 1
            return
        self._waiters.append(proc)
        proc.suspend()

    def release(self, n: int = 1) -> None:
        """Increment the semaphore ``n`` times, waking blocked processes."""
        for _ in range(n):
            if self._waiters:
                waiter = self._waiters.popleft()
                waiter.wake()
            else:
                self._value += 1


class Barrier:
    """A reusable barrier: the last of ``parties`` arrivals releases the rest."""

    def __init__(self, sim: "Simulator", parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise SimulationError("barrier requires at least one party")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._waiting: Deque["SimProcess"] = deque()
        self._generation = 0

    def wait(self) -> int:
        """Block until ``parties`` processes have called :meth:`wait`.

        Returns the barrier generation number (0 for the first cycle, 1 for
        the second, ...), which is occasionally useful in tests.
        """
        proc = _current(self.sim)
        generation = self._generation
        if len(self._waiting) + 1 == self.parties:
            # Last arrival: release everyone and advance the generation.
            self._generation += 1
            waiters, self._waiting = self._waiting, deque()
            for waiter in waiters:
                waiter.wake()
            return generation
        self._waiting.append(proc)
        proc.suspend()
        return generation
