"""A counting semaphore for simulated processes.

Its FIFO wait queue makes the wake-up order deterministic.  It may only be
acquired from within a :class:`~repro.sim.process.SimProcess` (the process
must currently hold control).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator
    from .process import SimProcess


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
        proc = self.sim.current_process
        if proc is None:
            raise SimulationError("semaphore acquired outside a SimProcess")
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
