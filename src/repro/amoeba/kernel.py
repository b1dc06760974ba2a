"""The per-node microkernel.

The Amoeba microkernel's four jobs (per the paper) are process/thread
management, low-level memory management, I/O, and transparent communication.
:class:`AmoebaKernel` provides threads for its node — simulation processes
pinned to the node — and hosts the timer facility used by the communication
protocols.  RPC and group communication live in their own modules but
register themselves with the kernel's node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..sim.events import Event
from ..sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node


class AmoebaKernel:
    """Per-node kernel services: threads and timers."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.sim = node.sim
        self._timers: Dict[int, Event] = {}
        self._timer_ids = 0

    # ------------------------------------------------------------------ #
    # Threads
    # ------------------------------------------------------------------ #

    def spawn_thread(
        self,
        target: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        start_delay: float = 0.0,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a thread (simulation process) pinned to this node.

        The thread is charged this node's context-switch cost at creation and
        carries a ``node`` attribute so higher layers can find the node it
        runs on (for overhead absorption and object-manager lookup).
        """
        thread_name = name or getattr(target, "__name__", "thread")
        proc = self.sim.spawn(
            target,
            *args,
            name=f"n{self.node.node_id}:{thread_name}",
            daemon=daemon,
            start_delay=start_delay + self.node.cost_model.cpu.context_switch_cost,
            **kwargs,
        )
        proc.node = self.node
        return proc

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any) -> int:
        """Arm a one-shot timer; returns a timer id usable with :meth:`cancel_timer`."""
        self._timer_ids += 1
        timer_id = self._timer_ids
        # A bound method with plain args, not a per-timer closure: timers are
        # armed (and usually cancelled) once per protocol message.
        self._timers[timer_id] = self.sim.schedule(
            delay, self._fire_timer, timer_id, callback, args
        )
        return timer_id

    def _fire_timer(self, timer_id: int, callback: Callable[..., Any], args: tuple) -> None:
        self._timers.pop(timer_id, None)
        if self.node.alive:
            callback(*args)

    def cancel_timer(self, timer_id: int) -> None:
        """Disarm a timer if it has not fired yet."""
        event = self._timers.pop(timer_id, None)
        if event is not None:
            self.sim.cancel(event)

    @property
    def active_timers(self) -> int:
        return len(self._timers)
