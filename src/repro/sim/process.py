"""Simulation processes on pooled carrier threads.

A :class:`SimProcess` runs ordinary Python code on an OS thread, but the
simulator guarantees that **at most one thread runs at any moment**: control
is passed by releasing the next owner's lock and then parking on one's own.
Application code gets plain imperative Python (deep recursion, loops,
exceptions) and the simulation stays fully deterministic: the interleaving of
processes is decided solely by the virtual-time event queue, never by the OS
scheduler.

A process owns no thread.  Its start borrows a parked *carrier* (one thread,
one raw lock) from the simulator's idle list and its body's return gives the
carrier back, so a short-lived process costs no thread creation.  A process
that blocks or ends runs the event loop itself (:meth:`Simulator._pass_control`)
on its own carrier, above its own frames, until an event makes some process
current: a thread switch happens only from one running process to the next.

Processes account for their computation with :meth:`SimProcess.compute`,
which accumulates *pending* virtual time locally.  Pending time is flushed
into the global clock lazily — when the process blocks, communicates, or
finishes — so that fine-grained accounting (e.g. one call per tree node in a
search application) does not force a kernel round trip per call.
"""

from __future__ import annotations

import os
import threading
from math import inf
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from ..errors import ProcessError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator


class ProcessKilled(BaseException):
    """Raised inside a process thread to unwind it when the simulation shuts down.

    Derives from ``BaseException`` so that well-behaved application code that
    catches ``Exception`` does not accidentally swallow it.
    """


#: ``M_ARENA_MAX`` of glibc's ``<malloc.h>``.
_M_ARENA_MAX = -8
_arenas_bounded = False


def _bound_malloc_arenas() -> None:
    """Keep glibc to one malloc arena, once per OS process, before any carrier.

    Every thread that allocates otherwise gets an arena of its own, and memory
    freed on one thread never returns to another's: with events firing on
    whichever carrier holds control that cost 14.6 % more resident memory
    (docs/ARCHITECTURE.md#carriers-and-the-host).  Arenas exist so threads
    can allocate in parallel; at most one of ours ever runs, so one arena
    loses nothing.  Skipped silently where libc has no ``mallopt``.
    ``ctypes`` is imported here, not at module import: the real backend's
    node processes import this package and never start a carrier.
    """
    global _arenas_bounded
    if _arenas_bounded:
        return
    _arenas_bounded = True
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass


def _never_preempt_on_wake() -> None:
    """Put the calling carrier thread under ``SCHED_BATCH`` (Linux; pid 0 is this thread).

    Under the default policy a woken carrier preempts its waker, finds the GIL
    still held, sleeps again and is woken a second time when the waker parks:
    three OS context switches per hand-off.  ``SCHED_BATCH`` means "my wake-ups
    never preempt", the simulator's own invariant (at most one carrier has
    anything to do), and makes it one.  Unprivileged; a carrier started under
    any other policy keeps it; skipped silently where the call is missing or
    refused, as ``mallopt`` is.  A thread or subprocess started from inside a
    process body inherits the policy (docs/ARCHITECTURE.md#carriers-and-the-host).
    """
    try:
        if os.sched_getscheduler(0) == os.SCHED_OTHER:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass


class _Carrier:
    """A pooled OS thread, parked on ``lock`` whenever its process is not running."""

    def __init__(self, sim: "Simulator") -> None:
        _bound_malloc_arenas()
        self.lock = threading.Lock()
        self.lock.acquire()
        self.proc: Optional["SimProcess"] = None
        self.thread = threading.Thread(
            target=self._main, args=(sim,), name="sim-carrier", daemon=True
        )
        self.thread.start()

    def _main(self, sim: "Simulator") -> None:
        _never_preempt_on_wake()
        self.lock.acquire()
        while self.proc is not None:  # woken with no process: shutdown
            self.proc._run()
            self.proc = None
            sim._idle.append(self)
            sim._current_process = None
            sim._pass_control(self.lock)


class SimProcess:
    """A simulated process (an Orca process, a worker thread, a server loop).

    Instances are created through :meth:`repro.sim.kernel.Simulator.spawn`.
    """

    _STATES = ("new", "ready", "running", "blocked", "finished", "failed", "killed")

    def __init__(
        self,
        sim: "Simulator",
        target: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        name: str = "process",
        daemon: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.daemon = daemon
        self._target = target
        self._args = args
        self._kwargs = kwargs or {}
        self.state = "new"
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: The machine this process is pinned to (set by the Amoeba kernel).
        self.node: Any = None
        self._pending_compute = 0.0
        self._killed = False
        self._wake_value: Any = None
        self._completion_waiters: List[Callable[["SimProcess"], None]] = []
        #: The lock of the carrier running this process, from its first start on.
        self._lock: Any = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def alive(self) -> bool:
        """True while the process has not yet finished, failed, or been killed."""
        return self.state in ("new", "ready", "running", "blocked")

    @property
    def finished(self) -> bool:
        return self.state == "finished"

    @property
    def failed(self) -> bool:
        return self.state == "failed"

    @property
    def local_time(self) -> float:
        """The process's own notion of current time (global clock + pending)."""
        return self.sim.now + self._pending_compute

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name!r} state={self.state}>"

    # ------------------------------------------------------------------ #
    # Control: these make the process current; the thread that fired the
    # event then wakes its carrier (Simulator._pass_control)
    # ------------------------------------------------------------------ #

    def _kernel_start(self) -> None:
        """Put the process on an idle carrier and make it current."""
        if self.state != "ready":
            return
        if self.node is not None and not self.node.alive:
            # The machine crashed between spawn and start: the thread died
            # with it before running a line (the gate of ``_kernel_resume``).
            self.state = "killed"
            return
        idle = self.sim._idle
        carrier = idle.pop() if idle else _Carrier(self.sim)
        carrier.proc = self
        self._lock = carrier.lock
        self.state = "running"
        self.sim._current_process = self

    def _kernel_resume(self, value: Any = None) -> None:
        """Make a blocked process current again (invoked from the event queue)."""
        if self.state == "killed":
            return
        if self.state != "blocked":
            raise SimulationError(f"cannot resume process {self.name!r} in state {self.state}")
        if self.node is not None and not self.node.alive:
            # The machine crashed while this process was blocked: its
            # thread died with it.  Unwind instead of running user code —
            # the same dead-node gate the Amoeba kernel applies to timers.
            self._killed = True
        self._wake_value = value
        self.state = "running"
        self.sim._current_process = self

    def _kill(self) -> None:
        """Mark a live process for unwinding (shutdown); a blocked one becomes current."""
        self._killed = True
        if self.state == "blocked":
            self.state = "running"
            self.sim._current_process = self
        elif self.state in ("new", "ready"):
            self.state = "killed"

    # ------------------------------------------------------------------ #
    # Process-side API (runs on the process's carrier thread)
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        """The process body, start to end, on its carrier."""
        try:
            self.result = self._target(*self._args, **self._kwargs)
            self.state = "finished"
            # Joiners are notified at the process's local time: after its pending
            # compute, which the event also puts on the clock.  With neither
            # (a daemon RPC handler nobody joined) there is nothing to fire.
            delay, self._pending_compute = self._pending_compute, 0.0
            if delay or self._completion_waiters:
                self.sim.schedule(delay, self._notify_completion)
        except ProcessKilled:
            self.state = "killed"
        except BaseException as exc:  # noqa: BLE001 - report any failure
            self.exception = exc
            self.state = "failed"
            if not self.daemon:
                error = ProcessError(
                    f"simulated process {self.name!r} raised {type(exc).__name__}: {exc}"
                )
                error.__cause__ = exc
                self.sim._abort(error)
        finally:
            # The body and its arguments (an RPC handler's request, message
            # and payload) are garbage from here on; ``sim.processes`` keeps
            # this object until shutdown.
            self._target = self._args = self._kwargs = None

    def _notify_completion(self) -> None:
        waiters, self._completion_waiters = self._completion_waiters, []
        for callback in waiters:
            callback(self)

    def _yield_control(self) -> Any:
        """Pass control on and park until resumed; returns the wake value."""
        self.sim._current_process = None
        self.sim._pass_control(self._lock)
        if self._killed:
            raise ProcessKilled()
        return self._wake_value

    def _require_current(self) -> None:
        if self.sim._current_process is not self:
            raise SimulationError(f"primitive called outside process {self.name!r}'s own context")

    # -- work accounting ------------------------------------------------ #

    def compute(self, units: float, unit_time: Optional[float] = None) -> None:
        """Account ``units`` of application work without yielding control.

        ``unit_time`` defaults to the simulator's configured work-unit time.
        The accumulated time is added to the global clock the next time this
        process blocks, communicates, or finishes.
        """
        if units < 0:
            raise SimulationError("compute() requires a non-negative amount of work")
        factor = self.sim.work_unit_time if unit_time is None else unit_time
        self._pending_compute += units * factor

    def advance(self, duration: float) -> None:
        """Account ``duration`` seconds of local computation without yielding."""
        if duration < 0:
            raise SimulationError("advance() requires a non-negative duration")
        self._pending_compute += duration

    def absorb_overhead(self, duration: float) -> None:
        """Charge externally-imposed CPU overhead (e.g. interrupt handling)."""
        if duration > 0:
            self._pending_compute += duration

    def flush(self) -> None:
        """Flush accumulated compute time into the global clock (may block)."""
        self._require_current()
        if self._pending_compute > 0.0:
            self.hold(0.0)

    # -- blocking primitives --------------------------------------------- #

    def hold(self, duration: float) -> None:
        """Block this process for ``duration`` seconds of virtual time.

        Any pending compute time is flushed first, so ``hold(0)`` is an
        explicit synchronization point.
        """
        self._require_current()
        if not 0 <= duration < inf:  # the fast path below never reaches schedule()'s check
            raise SimulationError("hold() requires a non-negative, finite duration")
        total = duration + self._pending_compute
        self._pending_compute = 0.0
        sim = self.sim
        if sim._fast_hold_ok:
            # Nothing in the queue can fire strictly before this process
            # would resume, so the resume event would be the very next event:
            # advance the clock here and skip the schedule and the pop.  Equal
            # timestamps must NOT take this path — an already-queued event at
            # exactly ``target`` has a smaller seq and fires first in the real
            # ordering.  Only valid during an unbounded run (no bound to overshoot).
            target = sim.now + total
            next_time = sim._queue.peek_time()
            if next_time is None or next_time > target:
                sim.now = target
                return
        self.state = "blocked"
        sim.schedule(total, self._kernel_resume)
        self._yield_control()

    def suspend(self) -> Any:
        """Block until another component calls :meth:`wake`.

        Pending compute time is flushed (scheduled) before suspending so the
        process's prior work is reflected in the clock by the time it wakes.
        Returns the value passed to :meth:`wake`.
        """
        self._require_current()
        self._pending_compute = 0.0
        self.state = "blocked"
        return self._yield_control()

    def wake(self, value: Any = None, delay: float = 0.0) -> None:
        """Schedule this (blocked) process to resume after ``delay`` seconds.

        May be called from kernel context (event callbacks) or from another
        process that currently holds control.  The first undelayed wake of an
        event callback, with nothing else due now, would be the very next
        event: it is parked for :meth:`Simulator._pass_control` to apply when
        the callback returns instead of going through the queue.
        """
        if not self.alive:
            return
        sim = self.sim
        if (
            delay == 0
            and sim._running
            and sim._current_process is None
            and sim._parked_wake is None
        ):
            next_time = sim._queue.peek_time()
            if next_time is None or next_time > sim.now:
                sim._parked_wake = (self, value)
                return
        sim.schedule(delay, self._kernel_resume, value)

    def join(self, other: "SimProcess") -> Any:
        """Block until ``other`` terminates; returns its result.

        Raises
        ------
        ProcessError
            If ``other`` failed with an exception.
        """
        self._require_current()
        if other.alive:
            other._completion_waiters.append(lambda _p: self.wake())
            self.suspend()
        if other.failed:
            raise ProcessError(
                f"joined process {other.name!r} failed: {other.exception}"
            ) from other.exception
        return other.result
