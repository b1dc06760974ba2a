"""Deterministic discrete-event simulation kernel.

The kernel provides a single global virtual clock, an event queue with stable
FIFO tie-breaking, and *handshaked-thread* processes (:class:`SimProcess`)
that let application code be written as ordinary imperative Python while the
simulator retains full control over interleaving, making every run
deterministic for a given seed and schedule.
"""

from .events import Event, EventQueue
from .kernel import Simulator
from .process import SimProcess
from .rng import RngRegistry
from .sync import Barrier, SimCondition, SimLock, SimSemaphore
from .trace import TraceRecord, Tracer

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimProcess",
    "RngRegistry",
    "SimLock",
    "SimCondition",
    "SimSemaphore",
    "Barrier",
    "Tracer",
    "TraceRecord",
]
