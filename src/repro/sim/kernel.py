"""The discrete-event simulator core: virtual clock, event queue, run loop."""

from __future__ import annotations

import threading
from math import inf
from typing import Any, Callable, List, Optional

from ..errors import DeadlockError, SimulationError
from .events import Event, EventQueue
from .process import SimProcess, _Carrier
from .rng import RngRegistry


class Simulator:
    """A single-clock discrete-event simulator.

    The simulator owns the virtual clock, the event queue and the
    random-stream registry.  Higher layers (the Amoeba substrate, the RTSes,
    the Orca programming layer) all schedule work through one simulator
    instance per cluster.

    The simulator can be used as a context manager; on exit it unwinds any
    still-blocked processes and ends the pooled carrier threads::

        with Simulator(seed=1) as sim:
            sim.spawn(my_process)
            sim.run()
    """

    def __init__(
        self,
        seed: int = 0,
        work_unit_time: float = 2.0e-5,
    ) -> None:
        self.now = 0.0
        self.rng = RngRegistry(seed)
        #: Default conversion factor used by :meth:`SimProcess.compute`.
        self.work_unit_time = work_unit_time
        self._queue = EventQueue()
        self._processes: List[SimProcess] = []
        self._current_process: Optional[SimProcess] = None
        self._running = False
        self._events_processed = 0
        #: ``(process, value)`` of a :meth:`SimProcess.wake` that would have
        #: been the very next event: resumed as its callback returns.
        self._parked_wake: Optional[tuple] = None
        #: True while an unbounded :meth:`run` is active: lets
        #: :meth:`SimProcess.hold` advance the clock directly when nothing
        #: can fire before the process would resume (see ``process.py``).
        #: Must stay False under ``until``/``max_events`` bounds, which the
        #: fast path would silently overshoot.
        self._fast_hold_ok = False
        #: Bounds of the active :meth:`run`: no event after ``_until`` fires,
        #: none once ``_events_processed`` reaches ``_stop_at`` (0: stopped).
        self._until = inf
        self._stop_at: float = 0
        #: Parked carrier threads that have no process (see ``process.py``).
        self._idle: List[_Carrier] = []
        #: :meth:`run` / :meth:`shutdown` park here while carriers have control;
        #: the carrier that wakes them leaves an exception for them to raise
        #: (which also stops the run) in ``_error``.
        self._kernel_lock = threading.Lock()
        self._kernel_lock.acquire()
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if not 0 <= delay < inf:  # negative, NaN (compares false) or infinite
            raise SimulationError(
                f"cannot schedule an event in the past or at no finite time (delay={delay})"
            )
        queue = self._queue
        event = Event(self.now + delay, queue.next_seq(), callback, args, kwargs)
        queue.push(event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule an event at {time}: not a finite time at or after "
                f"the current time {self.now}"
            )
        queue = self._queue
        event = Event(time, queue.next_seq(), callback, args, kwargs)
        queue.push(event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        if event.pending:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------ #
    # Processes
    # ------------------------------------------------------------------ #

    def spawn(
        self,
        target: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        start_delay: float = 0.0,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a :class:`SimProcess` running ``target`` and schedule its start."""
        proc_name = name or getattr(target, "__name__", "process")
        proc = SimProcess(
            self,
            target,
            args,
            kwargs,
            name=f"{proc_name}#{len(self._processes)}",
            daemon=daemon,
        )
        self._processes.append(proc)
        proc.state = "ready"
        self.schedule(start_delay, proc._kernel_start)
        return proc

    @property
    def current_process(self) -> Optional[SimProcess]:
        """The process currently holding control, if any."""
        return self._current_process

    @property
    def processes(self) -> List[SimProcess]:
        """All processes ever spawned on this simulator."""
        return list(self._processes)

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (a parked wake is not one)."""
        return self._events_processed

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> float:
        """Run until the event queue drains (or ``until`` / ``max_events`` hit).

        Returns the final virtual time.

        Raises
        ------
        DeadlockError
            If the event queue drains while non-daemon processes are still
            blocked and ``check_deadlock`` is true.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._fast_hold_ok = until is None and max_events is None
        self._until = inf if until is None else until
        self._stop_at = inf if max_events is None else self._events_processed + max_events
        try:
            self._pass_control(self._kernel_lock)
            self._raise_error()
            if check_deadlock and self._events_processed < self._stop_at:  # drained
                self._check_deadlock()
            return self.now
        finally:
            self._running = False
            self._fast_hold_ok = False
            self._stop_at = 0

    def _pass_control(self, lock: Any) -> None:
        """The one event loop, run by whichever thread holds control.

        That is the :meth:`run` caller, or a carrier whose process just
        blocked or ended; ``lock`` is the lock that thread parks on.  It pops
        and fires every due event itself until one makes a process current,
        then wakes that process's carrier and parks — no lock is touched when
        the process is the caller's own (its resume was the next event) or
        landed on the carrier just given back.  Nothing due, a bound hit or an
        abort wakes the :meth:`run` caller instead.  A callback's exception
        aborts the run and is left in ``_error`` for :meth:`run` to raise.

        A wake the callback parked (:meth:`SimProcess.wake`) is applied as the
        callback returns: it was the next event anyway, so it is not counted
        as one, neither in ``events_processed`` nor against ``max_events``.

        ``pop_next`` only yields live events, so they fire without a
        cancellation check; ``fired`` is set *before* the callback so a
        callback cancelling its own event cannot corrupt the live count.
        """
        queue = self._queue
        pop = queue.pop_next
        until = self._until
        try:
            while self._current_process is None and self._events_processed < self._stop_at:
                if until != inf:
                    next_time = queue.peek_time()
                    if next_time is not None and next_time > until:
                        self.now = until
                        self._stop_at = 0
                        break
                event = pop()
                if event is None:
                    break
                self.now = event.time
                event.fired = True
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
                self._events_processed += 1
                if self._parked_wake is not None:
                    (proc, value), self._parked_wake = self._parked_wake, None
                    proc._kernel_resume(value)
        except BaseException as exc:  # noqa: BLE001 - run() raises it
            self._abort(exc)
            if self._parked_wake is not None:  # back in the queue, as if never parked
                (proc, value), self._parked_wake = self._parked_wake, None
                self.schedule(0.0, proc._kernel_resume, value)
        current = self._current_process
        wake = self._kernel_lock if current is None else current._lock
        if wake is not lock:
            wake.release()
            lock.acquire()

    def _abort(self, error: BaseException) -> None:
        """Stop the active run: nothing more fires and ``run()`` raises ``error``."""
        self._error, self._stop_at = error, 0

    def _raise_error(self) -> None:
        """Back on the :meth:`run` / :meth:`shutdown` thread: raise what a carrier left."""
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _check_deadlock(self) -> None:
        # A process pinned to a crashed machine died with it: it can stay
        # "blocked" forever without that being a deadlock (e.g. a client
        # suspended mid-protocol when its own node crashes).  shutdown()
        # unwinds it and takes its carrier back, like every other leftover.
        blocked = [
            p
            for p in self._processes
            if p.state == "blocked" and not p.daemon and (p.node is None or p.node.alive)
        ]
        if blocked:
            names = ", ".join(p.name for p in blocked)
            raise DeadlockError(
                f"event queue empty at t={self.now:.6f} but processes are blocked: {names}"
            )

    # ------------------------------------------------------------------ #
    # Shutdown / context manager
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Unwind all still-alive processes, then end the carrier threads."""
        for proc in self._processes:
            if proc.alive:
                proc._kill()
                if self._current_process is proc:  # was blocked: let it unwind
                    self._pass_control(self._kernel_lock)
                    self._raise_error()
        self._queue.clear()
        while self._idle:
            carrier = self._idle.pop()
            carrier.lock.release()
            carrier.thread.join()

    def __enter__(self) -> "Simulator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
