"""Contended resources for event-driven simulation code.

The shared Ethernet medium (one transmission at a time) and other contended
facilities are modelled as :class:`FifoResource` instances.  Unlike the
primitives in :mod:`repro.sim.sync`, a resource can be used from plain event
callbacks (not only from processes): a user *requests* the resource with a
callback that is invoked when the resource is granted, uses it for some
amount of virtual time, and releases it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional, Tuple

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator


class FifoResource:
    """A resource with ``capacity`` concurrent slots and FIFO granting."""

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        #: Total virtual time during which at least one slot was busy
        #: (available after the simulation for utilization reporting).
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        #: Total number of grants issued.
        self.total_grants = 0
        #: Maximum queue length observed.
        self.max_queue_length = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, callback: Callable[..., Any], *args: Any) -> None:
        """Request a slot; ``callback(*args)`` runs when the slot is granted."""
        if self._in_use < self.capacity:
            self._grant(callback, args)
        else:
            self._queue.append((callback, args))
            self.max_queue_length = max(self.max_queue_length, len(self._queue))

    def _grant(self, callback: Callable[..., Any], args: tuple) -> None:
        if self._in_use == 0:
            self._busy_since = self.sim.now
        self._in_use += 1
        self.total_grants += 1
        # Grant via the event queue so the caller's stack unwinds first and
        # grant order remains deterministic.
        self.sim.schedule(0.0, callback, *args)

    def release(self) -> None:
        """Release one slot, granting it to the longest-waiting requester."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        self._in_use -= 1
        if self._queue:
            callback, args = self._queue.popleft()
            self._grant(callback, args)
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None

    def use(
        self, duration: float, callback: Optional[Callable[..., Any]] = None, *args: Any
    ) -> None:
        """Request the resource, hold it for ``duration``, then release.

        ``callback(*args)`` (if given) is invoked at the moment the holding
        period *ends* — i.e. when whatever the resource models (a packet
        transmission, a burst of CPU work) completes.
        """
        self.request(self._granted, duration, callback, args)

    def _granted(
        self, duration: float, callback: Optional[Callable[..., Any]], args: tuple
    ) -> None:
        self.sim.schedule(duration, self._done, callback, args)

    def _done(self, callback: Optional[Callable[..., Any]], args: tuple) -> None:
        self.release()
        if callback is not None:
            callback(*args)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource was busy over ``elapsed`` (default: now)."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        total = self.sim.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, busy / total)
