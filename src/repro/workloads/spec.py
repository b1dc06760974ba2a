"""Workload specifications: who asks for what, how often, and in what mix.

A :class:`WorkloadSpec` describes synthetic shared-object traffic abstractly,
independent of the scenario (which objects) and the runtime (which coherence
protocol).  It has three axes:

* **key popularity** — which of the scenario's keys a request touches:
  uniform, or Zipfian with configurable skew (the classic hot-key model);
* **read/write mix** — the probability that a request is a read;
* **client model** — *closed-loop* clients issue a request, wait for its
  completion, think, and repeat; *open-loop* clients draw Poisson arrival
  times in advance and issue on schedule.  Open-loop latencies are measured
  from the **intended** arrival time, so queueing delay is charged to the
  operation rather than silently absorbed (avoiding coordinated omission).

Multi-phase schedules (:class:`PhaseSpec`) let one workload shift mix or rate
mid-run — e.g. a write-heavy load phase followed by a read-mostly serve
phase, or a bursty open-loop arrival pattern.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

POPULARITY_KINDS = ("uniform", "zipfian")
CLIENT_MODELS = ("closed", "open")


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a workload: a request count with its own mix and pacing.

    Fields left at ``None`` inherit the workload-level value, so a phase list
    can express just the deltas ("same traffic, but write-heavy for a burst").
    ``client_model`` may differ per phase, giving *hybrid* clients: a client
    can run a closed-loop warm-up phase and then switch to open-loop Poisson
    arrivals (or back) at a phase boundary.
    """

    ops_per_client: int
    read_fraction: float = None  # type: ignore[assignment]
    think_time: float = None  # type: ignore[assignment]
    arrival_rate: float = None  # type: ignore[assignment]
    client_model: str = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ResolvedPhase:
    """A phase with every inherited field filled in (what clients execute)."""

    ops_per_client: int
    read_fraction: float
    think_time: float
    arrival_rate: float
    client_model: str


@dataclass(frozen=True)
class TenantSpec:
    """One tenant class of gateway sessions (see :mod:`repro.gateway`).

    Attributes
    ----------
    name:
        Tenant label; keys the per-tenant latency histograms and shed
        counters in ``read_write_summary()["gateway"]``.
    sessions:
        Concurrent sessions this tenant opens **per gateway** (one gateway
        per client node).  Sessions are cheap state machines, not simulated
        processes, so thousands per gateway are fine.
    weight:
        Weighted-fair-queueing share.  A backlogged tenant with weight 2
        gets twice the service of a backlogged tenant with weight 1.
    rate / burst:
        Token-bucket quota per gateway, in requests/second and requests.
        ``rate=None`` leaves the tenant uncapped; ``burst`` defaults to one
        second of tokens.  Requests beyond the quota are shed at admission
        (counted per tenant as ``shed_quota``).
    priority:
        Overload-shedding class: when the gateway's downstream queue depth
        crosses its shed threshold, only the highest-priority tenants are
        admitted, and an arriving higher-priority request may evict a
        queued lower-priority one from a full accept queue.
    arrival_rate / think_time / ops_per_session:
        Per-tenant overrides of the workload-level pacing knobs; ``None``
        inherits the spec value (``ops_per_client`` for the last).
    """

    name: str
    sessions: int = 8
    weight: float = 1.0
    rate: Optional[float] = None
    burst: Optional[float] = None
    priority: int = 0
    arrival_rate: Optional[float] = None
    think_time: Optional[float] = None
    ops_per_session: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenants need a non-empty name")
        if self.sessions < 1:
            raise ConfigurationError(
                f"tenant {self.name!r} needs sessions >= 1, got {self.sessions}")
        if self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} needs weight > 0, got {self.weight}")
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} needs rate > 0 (or None), got {self.rate}")
        if self.burst is not None and self.burst <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} needs burst > 0 (or None), got {self.burst}")
        if self.burst is not None and self.rate is None:
            raise ConfigurationError(
                f"tenant {self.name!r} sets burst without rate; the bucket "
                "needs a refill rate")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} needs arrival_rate > 0 (or None), "
                f"got {self.arrival_rate}")
        if self.think_time is not None and self.think_time < 0:
            raise ConfigurationError(
                f"tenant {self.name!r} needs think_time >= 0 (or None), "
                f"got {self.think_time}")
        if self.ops_per_session is not None and self.ops_per_session < 1:
            raise ConfigurationError(
                f"tenant {self.name!r} needs ops_per_session >= 1 (or None), "
                f"got {self.ops_per_session}")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete description of one synthetic traffic pattern.

    Attributes
    ----------
    name:
        Label used in reports.
    num_keys:
        Size of the scenario's key space (number of counters, catalog
        entries, ...).  Scenario kinds decide what a "key" maps to.
    popularity:
        ``"uniform"`` or ``"zipfian"`` key selection.
    zipf_s:
        Zipf exponent; larger values concentrate traffic on fewer keys.
    read_fraction:
        Probability that a request is a read (scenario kinds map read/write
        requests onto concrete operations).
    hot_keys / hot_read_fraction:
        Key-correlated mix: requests touching the first ``hot_keys`` keys
        (the most popular ones under Zipfian selection) draw their
        read/write decision from ``hot_read_fraction`` instead.  This is the
        "read-mostly catalog plus write-hot keys" shape that gives different
        objects genuinely different read/write ratios — the input the
        adaptive management policy feeds on.  ``hot_keys=0`` (default)
        disables the correlation.
    client_model:
        ``"closed"`` (think-time loop) or ``"open"`` (Poisson arrivals).
    ops_per_client:
        Requests each simulated client issues (per phase when phases are
        given explicitly).
    think_time:
        Closed-loop mean think time between requests, in seconds of virtual
        time (exponentially distributed; 0 disables thinking).
    arrival_rate:
        Open-loop mean arrival rate per client, in requests/second.
    phases:
        Optional multi-phase schedule; empty means one phase built from the
        top-level fields.
    arrival_trace:
        Deterministic per-phase arrival-rate trace: a sequence of
        ``(duration, rate)`` segments, in virtual seconds and requests per
        second per client.  When set (open-loop only), each client draws
        piecewise-Poisson arrivals across the segments and issues requests
        until the trace ends — the request *count* falls out of the trace
        instead of being fixed up front.  The segment index is exposed as
        the request's ``phase``, which is what lets scenario kinds shift a
        hotspot from one segment to the next (see ``hotspot-shift``).
    tenants:
        Gateway-tier tenant classes (:class:`TenantSpec`).  Only consumed
        by gateway-mode runs (see :mod:`repro.gateway`): each client node
        hosts one gateway through which every tenant opens ``sessions``
        lightweight sessions, subject to per-tenant weighted fair queueing,
        token-bucket quotas, and priority-based overload shedding.  Empty
        (default) keeps the classic one-sim-process-per-client runner.
    """

    name: str = "workload"
    num_keys: int = 16
    popularity: str = "uniform"
    zipf_s: float = 1.1
    read_fraction: float = 0.9
    hot_keys: int = 0
    hot_read_fraction: Optional[float] = None
    client_model: str = "closed"
    ops_per_client: int = 50
    think_time: float = 0.0
    arrival_rate: float = 200.0
    phases: Tuple[PhaseSpec, ...] = field(default_factory=tuple)
    arrival_trace: Tuple[Tuple[float, float], ...] = field(default_factory=tuple)
    tenants: Tuple[TenantSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.popularity not in POPULARITY_KINDS:
            raise ConfigurationError(
                f"unknown popularity {self.popularity!r} (use one of {POPULARITY_KINDS})")
        if self.client_model not in CLIENT_MODELS:
            raise ConfigurationError(
                f"unknown client model {self.client_model!r} (use one of {CLIENT_MODELS})")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError(f"read_fraction must be in [0, 1], got {self.read_fraction}")
        if self.num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {self.num_keys}")
        if not 0 <= self.hot_keys <= self.num_keys:
            raise ConfigurationError(f"hot_keys must be in [0, num_keys], got {self.hot_keys}")
        if self.hot_keys and self.hot_read_fraction is None:
            raise ConfigurationError("hot_keys needs hot_read_fraction to give the hot keys a mix")
        if self.hot_read_fraction is not None and not 0.0 <= self.hot_read_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_read_fraction must be in [0, 1], got {self.hot_read_fraction}")
        if self.client_model == "open" and self.arrival_rate <= 0:
            raise ConfigurationError("open-loop workloads need arrival_rate > 0")
        for index, phase in enumerate(self.phases):
            model = phase.client_model
            if model is not None and model not in CLIENT_MODELS:
                raise ConfigurationError(
                    f"phase {index} has unknown client model {model!r} "
                    f"(use one of {CLIENT_MODELS})")
            effective_model = self.client_model if model is None else model
            effective_rate = (self.arrival_rate if phase.arrival_rate is None
                              else phase.arrival_rate)
            if effective_model == "open" and effective_rate <= 0:
                raise ConfigurationError(
                    f"phase {index} is open-loop and needs arrival_rate > 0")
        seen_tenants = set()
        for tenant in self.tenants:
            if tenant.name in seen_tenants:
                raise ConfigurationError(f"duplicate tenant name {tenant.name!r}")
            seen_tenants.add(tenant.name)
        if self.arrival_trace:
            if self.client_model != "open":
                raise ConfigurationError(
                    "arrival_trace drives open-loop arrivals; set "
                    "client_model='open'")
            if self.phases:
                raise ConfigurationError("give either phases or arrival_trace, not both")
            for segment in self.arrival_trace:
                if len(segment) != 2:
                    raise ConfigurationError(
                        f"trace segments are (duration, rate) pairs, got "
                        f"{segment!r}")
                duration, rate = segment
                if duration <= 0 or rate <= 0:
                    raise ConfigurationError(
                        f"trace segment ({duration}, {rate}) must have "
                        "positive duration and rate")

    # ------------------------------------------------------------------ #

    def resolved_phases(self) -> List[ResolvedPhase]:
        """The phase schedule with workload-level defaults filled in."""
        if not self.phases:
            return [ResolvedPhase(self.ops_per_client, self.read_fraction,
                                  self.think_time, self.arrival_rate,
                                  self.client_model)]
        resolved = []
        for phase in self.phases:
            resolved.append(ResolvedPhase(
                ops_per_client=phase.ops_per_client,
                read_fraction=(self.read_fraction if phase.read_fraction is None
                               else phase.read_fraction),
                think_time=(self.think_time if phase.think_time is None
                            else phase.think_time),
                arrival_rate=(self.arrival_rate if phase.arrival_rate is None
                              else phase.arrival_rate),
                client_model=(self.client_model if phase.client_model is None
                              else phase.client_model),
            ))
        return resolved

    @property
    def total_ops_per_client(self) -> int:
        return sum(phase.ops_per_client for phase in self.resolved_phases())

    def with_overrides(self, **changes) -> "WorkloadSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)


def bursty(name: str, ops_per_phase: int, base_rate: float, burst_rate: float,
           read_fraction: float = 0.9, num_keys: int = 16,
           bursts: int = 2, **overrides) -> WorkloadSpec:
    """An open-loop workload alternating calm and burst arrival phases."""
    phases: List[PhaseSpec] = []
    for _ in range(bursts):
        phases.append(PhaseSpec(ops_per_client=ops_per_phase, arrival_rate=base_rate))
        phases.append(PhaseSpec(ops_per_client=ops_per_phase, arrival_rate=burst_rate))
    return WorkloadSpec(name=name, num_keys=num_keys, read_fraction=read_fraction,
                        client_model="open", arrival_rate=base_rate,
                        phases=tuple(phases), **overrides)


class KeySampler:
    """Draws key indices in ``[0, num_keys)`` under the configured popularity."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.num_keys = spec.num_keys
        self.kind = spec.popularity
        self._cdf: List[float] = []
        if self.kind == "zipfian":
            weights = [1.0 / ((rank + 1) ** spec.zipf_s) for rank in range(self.num_keys)]
            total = sum(weights)
            running = 0.0
            for weight in weights:
                running += weight / total
                self._cdf.append(running)
            self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        if self.kind == "uniform":
            return rng.randrange(self.num_keys)
        return bisect_left(self._cdf, rng.random())


@dataclass(frozen=True)
class Request:
    """One generated client request, before the scenario maps it to an op."""

    seq: int
    key: int
    is_write: bool
    phase: int


def request_stream(spec: WorkloadSpec, rng: random.Random) -> Iterator[Request]:
    """Generate the request sequence one client issues (deterministic per rng).

    The stream interleaves key sampling and mix decisions in a fixed order so
    that, for a given seeded ``rng``, two runs observe identical requests.
    """
    sampler = KeySampler(spec)
    seq = 0
    for phase_index, phase in enumerate(spec.resolved_phases()):
        for _ in range(phase.ops_per_client):
            key = sampler.sample(rng)
            # One mix draw per request in a fixed order (so the stream is
            # identical across configurations); the threshold it is compared
            # against may be key-correlated (hot keys write-hot, say).
            read_fraction = phase.read_fraction
            if key < spec.hot_keys:
                read_fraction = spec.hot_read_fraction
            is_write = rng.random() >= read_fraction
            yield Request(seq=seq, key=key, is_write=is_write, phase=phase_index)
            seq += 1


def trace_arrivals(trace: Sequence[Tuple[float, float]],
                   rng: random.Random) -> Iterator[Tuple[float, int]]:
    """Piecewise-Poisson arrival times over a ``(duration, rate)`` trace.

    Yields ``(arrival_time, segment_index)`` pairs, deterministic per seeded
    ``rng``.  Gaps are drawn at the current segment's rate; a gap that
    crosses a boundary restarts the draw inside the next segment (a cheap,
    deterministic stand-in for exact thinning — the bias is one inter-arrival
    gap per boundary).
    """
    t = 0.0
    start = 0.0
    for segment, (duration, rate) in enumerate(trace):
        end = start + duration
        t = max(t, start)
        while True:
            gap = rng.expovariate(rate)
            if t + gap >= end:
                break
            t += gap
            yield t, segment
        start = end


def traced_request_stream(spec: WorkloadSpec,
                          rng: random.Random) -> Iterator[Tuple[Request, float]]:
    """One client's requests under the spec's arrival-rate trace.

    Yields ``(request, intended_arrival_time)``; the request's ``phase`` is
    the trace segment it arrived in.  Key popularity and the (possibly
    key-correlated) read/write mix work exactly as in :func:`request_stream`,
    drawn in a fixed order so the stream is identical across configurations.
    """
    sampler = KeySampler(spec)
    seq = 0
    for arrival, segment in trace_arrivals(spec.arrival_trace, rng):
        key = sampler.sample(rng)
        read_fraction = spec.read_fraction
        if key < spec.hot_keys:
            read_fraction = spec.hot_read_fraction
        is_write = rng.random() >= read_fraction
        yield Request(seq=seq, key=key, is_write=is_write, phase=segment), arrival
        seq += 1


def client_stream(node_id: int, client_id: int) -> str:
    """The name of client ``client_id`` on node ``node_id``'s rng stream.

    A client's requests come from the stream of this name under the run's
    seed wherever it runs: the simulator's client body, the oracle's replay
    and the real backend's plan (which carries the derived seed), so a
    client draws the same requests on every backend."""
    return f"workload.client.{node_id}.{client_id}"


def client_schedule(spec: WorkloadSpec,
                    rng: random.Random) -> Iterator[Tuple[Request, str, float]]:
    """One client's requests with their pacing draws, in the one order every
    client driver makes them.  Yields ``(request, pacing, value)``:
    ``"trace"`` with the arrival offset from the client's start, ``"open"``
    with the Poisson gap since the last arrival, ``"closed"`` with the think
    time (0.0, not drawn, when the request's phase does not think)."""
    if spec.arrival_trace:
        for request, offset in traced_request_stream(spec, rng):
            yield request, "trace", offset
        return
    phases = spec.resolved_phases()
    for request in request_stream(spec, rng):
        phase = phases[request.phase]
        if phase.client_model == "open":
            yield request, "open", rng.expovariate(phase.arrival_rate)
        else:
            think = phase.think_time
            yield request, "closed", rng.expovariate(1.0 / think) if think > 0.0 else 0.0
