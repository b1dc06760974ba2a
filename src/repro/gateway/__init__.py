"""The front door: a session tier between many clients and the runtime.

The paper's stack assumed a few dozen application processes; this package is
what lets the reproduction face *millions* of clients.  Instead of one
simulated process per client (whose OS-thread cost caps a run at a few
hundred), each client node hosts one :class:`~repro.gateway.gateway.Gateway`
through which thousands of lightweight :class:`ClientSession` state machines
multiplex onto the existing :meth:`~repro.rts.base.RuntimeSystem.invoke`
path.  Three mechanisms keep the edge well-behaved under overload:

* **admission control** — a bounded accept queue per gateway; a full queue
  rejects new arrivals (or evicts a queued lower-priority request) instead
  of letting latency grow without bound;
* **weighted fair queueing** — admitted requests are served in start-time
  fair-queueing order across tenants, with per-tenant token-bucket quotas
  (:class:`~repro.workloads.spec.TenantSpec`), so a noisy neighbour cannot
  starve a quiet one;
* **overload shedding** — the same per-shard sequencer depth that arms the
  write batcher's backpressure
  (:meth:`~repro.rts.base.RuntimeSystem.downstream_queue_depth`) is checked
  at admission time: when the downstream is congested, only the
  highest-priority tenants are admitted, so admitted-request p99 degrades
  gracefully instead of spiralling.

Sessions are pure state (a request generator plus one pending arrival), so
a gateway drives tens of thousands of them with one driver process and a
small worker pool; the worker pool is the gateway's service capacity.  All
decisions happen at deterministic virtual times from named rng streams, so
gateway runs fingerprint byte-identically per seed.  The tier is created
lazily by gateway-mode workload runs (``WorkloadRunner(gateway=...)``) and
attached as ``rts.gateway_tier``; runs without it carry no gateway block in
``read_write_summary()``, keeping every pre-gateway baseline unchanged.
"""

from .gateway import FairQueue, Gateway, TokenBucket
from .params import GatewayParams
from .session import ClientSession
from .tier import GatewayTier

__all__ = [
    "ClientSession",
    "FairQueue",
    "Gateway",
    "GatewayParams",
    "GatewayTier",
    "TokenBucket",
]
