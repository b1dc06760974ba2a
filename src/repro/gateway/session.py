"""Client sessions: cheap per-client state machines, not simulated processes.

A :class:`ClientSession` is the gateway-tier replacement for the classic
runner's one-SimProcess-per-client: it owns a deterministic request schedule
(:func:`~repro.workloads.spec.client_schedule`, every request with its
pacing draw) and turns it into timed *arrivals* for its gateway's driver.  A
session is a generator plus a few floats — no OS thread — which is what
makes ≥10k concurrent sessions per sim cell affordable.

Arrival semantics follow the spec's (possibly per-phase) client model:

* **open** phases draw Poisson gaps onto an absolute arrival clock, so
  arrivals stay on schedule no matter how far behind the service side is
  (latency is charged from the intended arrival — no coordinated
  omission);
* **closed** phases wait for the previous request's completion (or its
  shed) plus an exponential think time;
* **hybrid** streams switch per phase: the open clock restarts from the
  switch point whenever a closed phase hands over to an open one.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Optional, Tuple

from ..workloads.spec import Request, WorkloadSpec, client_schedule

#: ``advance`` outcome tags: the next arrival is already timed, or it waits
#: on the in-flight request's completion (closed-loop chaining).
READY = "ready"
WAIT = "wait"


class ClientSession:
    """One client's request stream, advanced by its gateway's driver."""

    __slots__ = ("sid", "tenant", "start_time", "waiting", "done",
                 "_schedule", "_open_clock", "_prev_pacing")

    def __init__(self, sid: int, tenant: Any, spec: WorkloadSpec,
                 rng: random.Random, start_time: float) -> None:
        self.sid = sid
        #: The gateway-side tenant state this session bills to (opaque here).
        self.tenant = tenant
        self.start_time = start_time
        #: A generated closed-loop request and its think time, waiting for
        #: its predecessor's completion before its arrival time exists.  The
        #: session owns its rng stream, so drawing the think time with the
        #: request leaves the draw order as it is.
        self.waiting: Optional[Tuple[Request, float]] = None
        self.done = False
        self._schedule: Iterator[Tuple[Request, str, float]] = client_schedule(spec, rng)
        self._open_clock = start_time
        self._prev_pacing: Optional[str] = None

    def advance(self, now: float) -> Optional[Tuple[str, float, Optional[Request]]]:
        """Generate the next request; returns how (and when) it arrives.

        ``(READY, arrival, request)`` — the arrival time is determined
        (open-loop schedule or trace offset); ``(WAIT, 0.0, None)`` — the
        request is closed-loop and stashed in :attr:`waiting` until
        :meth:`release` is called with its predecessor's completion time;
        ``None`` — the stream is exhausted.
        """
        item = next(self._schedule, None)
        if item is None:
            self.done = True
            return None
        request, pacing, value = item
        if pacing == "trace":
            return (READY, self.start_time + value, request)
        prev, self._prev_pacing = self._prev_pacing, pacing
        if pacing == "open":
            if prev == "closed":
                # Closed -> open handover: the schedule restarts from the
                # switch point instead of back-filling arrivals for the
                # time spent in the closed phase.
                self._open_clock = now
            self._open_clock += value
            return (READY, self._open_clock, request)
        self.waiting = (request, value)
        return (WAIT, 0.0, None)

    def release(self, completion_time: float) -> Tuple[float, Request]:
        """Time the stashed closed-loop request off its predecessor's end."""
        assert self.waiting is not None, "release() without a waiting request"
        (request, think), self.waiting = self.waiting, None
        return completion_time + think, request
