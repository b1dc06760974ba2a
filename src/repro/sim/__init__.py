"""Deterministic discrete-event simulation kernel.

The kernel provides a single global virtual clock, an event queue with stable
FIFO tie-breaking, and *handshaked-thread* processes (:class:`SimProcess`)
that let application code be written as ordinary imperative Python while the
simulator retains full control over interleaving, making every run
deterministic for a given seed and schedule.
"""

from .._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".events": ("Event", "EventQueue"),
    ".kernel": ("Simulator",),
    ".process": ("SimProcess",),
    ".rng": ("RngRegistry",),
    ".sync": ("SimSemaphore",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimProcess",
    "RngRegistry",
    "SimSemaphore",
]
