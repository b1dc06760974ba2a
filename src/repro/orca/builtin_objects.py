"""A library of generally useful shared object types.

These are the object types most Orca programs need: shared scalars, a job
queue for the replicated-worker paradigm, a queue whose dequeue never blocks,
a guarded bank account, sets, counters, dictionaries and a barrier.  They
also serve as worked examples of how to define object types with the
:func:`~repro.rts.object_model.operation` decorator, including
guarded (blocking) operations.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from ..rts.object_model import ObjectSpec, operation


class IntObject(ObjectSpec):
    """A shared integer with atomic read-modify-write operations.

    The TSP global bound is an ``IntObject`` used through :meth:`min_update`,
    whose indivisibility prevents the race the paper mentions ("first checks
    if the new value actually is less than the current value").
    """

    def init(self, value: int = 0) -> None:
        self.value = value

    @operation(write=False)
    def read(self) -> int:
        """Return the current value (local, no communication when replicated)."""
        return self.value

    @operation(write=True)
    def assign(self, value: int) -> int:
        """Set the value unconditionally; returns the new value."""
        self.value = value
        return self.value

    @operation(write=True)
    def add(self, delta: int = 1) -> int:
        """Atomically add ``delta``; returns the new value."""
        self.value += delta
        return self.value

    @operation(write=True)
    def min_update(self, candidate: int) -> bool:
        """Atomically lower the value to ``candidate`` if that is smaller.

        Returns True if the value was changed.
        """
        if candidate < self.value:
            self.value = candidate
            return True
        return False


class BoolObject(ObjectSpec):
    """A shared boolean flag (e.g. ACP's "no solution exists" flag)."""

    def init(self, value: bool = False) -> None:
        self.value = bool(value)

    @operation(write=False)
    def read(self) -> bool:
        return self.value

    @operation(write=True)
    def set(self, value: bool = True) -> bool:
        self.value = bool(value)
        return self.value

    @operation(write=True, guard=lambda self: self.value)
    def await_true(self) -> bool:
        """Block the caller until the flag becomes true."""
        return True


class JobQueue(ObjectSpec):
    """The replicated-worker job queue.

    Workers call :meth:`get_job`, which blocks while the queue is empty and
    returns ``None`` once the queue has been closed with :meth:`no_more_jobs`
    and drained — the standard Orca idiom for terminating worker processes.
    """

    def init(self, jobs: Optional[List[Any]] = None) -> None:
        self.jobs = deque(jobs or [])
        self.closed = False
        self.added = len(self.jobs)
        self.taken = 0

    @operation(write=True)
    def add_job(self, job: Any) -> int:
        """Append one job; returns the queue length."""
        self.jobs.append(job)
        self.added += 1
        return len(self.jobs)

    @operation(write=True)
    def add_jobs(self, jobs: List[Any]) -> int:
        """Append many jobs at once; returns the queue length."""
        self.jobs.extend(jobs)
        self.added += len(jobs)
        return len(self.jobs)

    @operation(write=True, guard=lambda self: bool(self.jobs) or self.closed)
    def get_job(self) -> Any:
        """Remove and return the next job; ``None`` when closed and drained.

        Blocks (via the guard) while the queue is empty but still open.
        """
        if self.jobs:
            self.taken += 1
            return self.jobs.popleft()
        return None

    @operation(write=True)
    def no_more_jobs(self) -> None:
        """Close the queue: blocked and future ``get_job`` calls return None."""
        self.closed = True

    @operation(write=False)
    def size(self) -> int:
        return len(self.jobs)


class PollableQueue(ObjectSpec):
    """A FIFO queue whose dequeue never blocks (workload-friendly consume).

    The classic Orca :class:`JobQueue` blocks consumers on a guard while the
    queue is empty; synthetic traffic instead wants a bounded-time ``poll``
    that returns ``None`` on empty, so client loops always terminate.
    """

    def init(self) -> None:
        self.items: List[Any] = []
        self.enqueued = 0
        self.dequeued = 0
        self.empty_polls = 0

    @operation(write=True)
    def put(self, item: Any) -> int:
        self.items.append(item)
        self.enqueued += 1
        return len(self.items)

    @operation(write=True)
    def poll(self) -> Any:
        """Dequeue the oldest item, or return ``None`` when empty."""
        if self.items:
            self.dequeued += 1
            return self.items.pop(0)
        self.empty_polls += 1
        return None

    @operation(write=True, guard=lambda self: bool(self.items))
    def take(self) -> Any:
        """Dequeue the oldest item; the guard rejects an empty queue.

        Unlike ``poll`` this never consumes "nothing" — inside a transaction
        the guard turns move-from-empty into a clean all-or-nothing abort.
        """
        self.dequeued += 1
        return self.items.pop(0)

    @operation(write=False)
    def size(self) -> int:
        return len(self.items)

    @operation(write=False)
    def totals(self) -> Dict[str, int]:
        return {"enqueued": self.enqueued, "dequeued": self.dequeued,
                "empty_polls": self.empty_polls}


class BankAccount(ObjectSpec):
    """An account whose withdrawals are guarded against overdraft."""

    def init(self, balance: int = 0) -> None:
        self.balance = balance

    @operation(write=False)
    def read(self) -> int:
        return self.balance

    @operation(write=True)
    def deposit(self, amount: int) -> int:
        self.balance += amount
        return self.balance

    @operation(write=True, guard=lambda self, amount: self.balance >= amount)
    def withdraw(self, amount: int) -> int:
        self.balance -= amount
        return self.balance

    @operation(write=True)
    def adjust(self, delta: int) -> int:
        """Unguarded balance change (the non-transactional fallback path)."""
        self.balance += delta
        return self.balance


class SetObject(ObjectSpec):
    """A shared set (e.g. ATPG's set of already-covered faults)."""

    def init(self, items: Optional[List[Any]] = None) -> None:
        self.items = set(items or [])

    @operation(write=False)
    def contains(self, item: Any) -> bool:
        return item in self.items

    @operation(write=False)
    def size(self) -> int:
        return len(self.items)

    @operation(write=False)
    def snapshot(self) -> List[Any]:
        """Return the current membership as a sorted list."""
        return sorted(self.items)

    @operation(write=True)
    def add(self, item: Any) -> bool:
        """Insert ``item``; returns True if it was not already present."""
        if item in self.items:
            return False
        self.items.add(item)
        return True

    @operation(write=True)
    def add_many(self, items: List[Any]) -> int:
        """Insert several items; returns how many were new."""
        new = [item for item in items if item not in self.items]
        self.items.update(new)
        return len(new)

    @operation(write=True)
    def remove(self, item: Any) -> bool:
        if item in self.items:
            self.items.discard(item)
            return True
        return False


class DictObject(ObjectSpec):
    """A shared dictionary (e.g. a shared transposition table)."""

    def init(self, capacity: Optional[int] = None) -> None:
        self.entries: Dict[Any, Any] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    @operation(write=False)
    def lookup(self, key: Any) -> Any:
        """Return the value stored under ``key`` or ``None``."""
        return self.entries.get(key)

    @operation(write=False)
    def size(self) -> int:
        return len(self.entries)

    @operation(write=True)
    def store(self, key: Any, value: Any) -> bool:
        """Store ``key -> value``; evicts nothing unless capacity is exceeded.

        Returns False if the table is full and the key was not stored.
        """
        if key in self.entries:
            self.entries[key] = value
            return True
        if self.capacity is not None and len(self.entries) >= self.capacity:
            return False
        self.entries[key] = value
        return True

    @operation(write=True)
    def clear(self) -> None:
        self.entries.clear()


class BarrierObject(ObjectSpec):
    """A reusable barrier implemented as a shared object."""

    def init(self, parties: int) -> None:
        self.parties = parties
        self.arrived = 0
        self.generation = 0

    @operation(write=True)
    def arrive(self) -> int:
        """Register arrival; returns the generation this arrival belongs to."""
        generation = self.generation
        self.arrived += 1
        if self.arrived >= self.parties:
            self.arrived = 0
            self.generation += 1
        return generation

    @operation(write=True, guard=lambda self, generation: self.generation > generation)
    def await_generation(self, generation: int) -> int:
        """Block until the barrier generation exceeds ``generation``.

        The idiom is ``g = barrier.arrive(); barrier.await_generation(g)``.
        """
        return self.generation
