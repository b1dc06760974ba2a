"""Shared-object scenario kinds: what objects exist and what requests do.

A :class:`Scenario` binds an abstract :class:`~repro.workloads.spec.Request`
stream to shared objects and operations through the common
:class:`~repro.rts.base.RuntimeSystem` interface, so it runs unchanged on
every runtime.  Kinds register with :class:`ScenarioRegistry` through the
:func:`scenario` decorator.  Nine are one family, :class:`Counters`, whose
kinds are class data plus a key remapping or a fault schedule; a kind with
objects or operations of its own keeps its own class.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Type

from ..errors import ConfigurationError, TransactionAborted
from ..orca.builtin_objects import BankAccount, DictObject, IntObject, PollableQueue
from ..rts.base import ObjectHandle, RuntimeSystem
from .spec import PhaseSpec, Request, TenantSpec, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.process import SimProcess


class Scenario(ABC):
    """One shared-object traffic scenario, runnable against any runtime."""

    #: Registry key; subclasses set it via the :func:`scenario` decorator.
    kind = "abstract"
    #: :class:`WorkloadSpec` fields of :meth:`default_spec` besides its name.
    spec_defaults: Dict[str, Any] = {}
    #: Whether the kind's writes all commute, so replaying the request
    #: streams in any order predicts every object's exact final state.
    writes_commute = False

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.handles: List[ObjectHandle] = []

    @classmethod
    def default_spec(cls) -> WorkloadSpec:
        """The workload this scenario is usually driven with."""
        return WorkloadSpec(name=cls.kind, **cls.spec_defaults)

    def client_nodes(self, cluster) -> List[int]:
        """Node ids that should host workload clients (default: all).

        Scenario kinds that crash machines mid-run (``primary-churn``)
        reserve their victims here, so no client is stranded on a machine
        that is scheduled to die.
        """
        return [node.node_id for node in cluster.nodes]

    @abstractmethod
    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        """Create the scenario's shared objects (runs once, before clients)."""

    @abstractmethod
    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        """Execute one request against the shared objects."""

    def validate(self, rts: RuntimeSystem, proc: "SimProcess",
                 totals: Dict[str, int]) -> Dict[str, Any]:
        """Assert the kind's invariants after the run; return its facts.

        ``totals`` carries the runner's request counts (``reads``/``writes``).
        """
        return {}


class ScenarioRegistry:
    """Name -> scenario-class registry with creation helpers."""

    _kinds: Dict[str, Type[Scenario]] = {}

    @classmethod
    def register(cls, kind: str, scenario_class: Type[Scenario]) -> None:
        if kind in cls._kinds:
            raise ConfigurationError(f"scenario kind {kind!r} already registered")
        scenario_class.kind = kind
        cls._kinds[kind] = scenario_class

    @classmethod
    def names(cls) -> List[str]:
        return sorted(cls._kinds)

    @classmethod
    def get(cls, kind: str) -> Type[Scenario]:
        try:
            return cls._kinds[kind]
        except KeyError:
            raise ConfigurationError(
                f"unknown scenario kind {kind!r} (known: {', '.join(cls.names())})"
            ) from None

    @classmethod
    def create(cls, kind: str, spec: "WorkloadSpec | None" = None) -> Scenario:
        """Instantiate ``kind`` with ``spec`` (default: the kind's own spec)."""
        scenario_class = cls.get(kind)
        return scenario_class(spec or scenario_class.default_spec())


def scenario(kind: str):
    """Class decorator registering a :class:`Scenario` subclass under ``kind``."""

    def decorate(scenario_class: Type[Scenario]) -> Type[Scenario]:
        ScenarioRegistry.register(kind, scenario_class)
        return scenario_class

    return decorate


def _broadcast_runtime_with(rts: RuntimeSystem, method: str) -> bool:
    """Does ``rts`` offer ``method`` on a broadcast-capable interconnect?

    Takeover, rejoin, group removal and transactions all run through the
    broadcast groups, so the method alone is not enough.
    """
    return hasattr(rts, method) and rts.cluster.network.supports_broadcast


def _hold_until(proc: "SimProcess", at: float) -> None:
    """Hold ``proc`` until virtual time ``at`` (no wait once it has passed)."""
    if proc.local_time < at:
        proc.hold(at - proc.local_time)


class Counters(Scenario):
    """``IntObject`` counters: a write adds 1 to one, a read reads one.

    A kind of the family sets class data and, where it has one, a key
    remapping (:meth:`_counter_for`) or a fault schedule: ``_stage_faults``
    prepares it, ``_run_faults(rts)`` runs it as a daemon thread on the first
    client node and ``_fault_facts(rts)`` reports what it did.  ``validate``
    checks conservation: the counters sum to the writes issued.
    """

    #: Object name of counter ``i``.
    name_pattern = "counter[{}]"
    #: How many counters there are (``None``: one per key of the spec).
    num_counters: Optional[int] = None
    #: Management policies assigned round-robin (``None``: the runtime's).
    policies: Tuple[Optional[str], ...] = (None,)
    #: Facts key of the conserved total.
    total_key = "counter_total"
    #: Facts key saying whether the fault schedule ran (``None``: no schedule).
    fault_key: Optional[str] = None
    fault_active = False
    writes_commute = True

    def _counter_for(self, request: Request) -> int:
        """Index of the counter ``request`` adds to or reads."""
        return request.key

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        count = self.spec.num_keys if self.num_counters is None else self.num_counters
        policies = self.policies
        if hasattr(rts, "relocate_primary") and not rts.cluster.network.supports_broadcast:
            # Per-object policies that include broadcast management need a
            # broadcast-capable network; fall back to the runtime's default.
            policies = (None,)
        self.handles = [
            rts.create_object(proc, IntObject, (0,), name=self.name_pattern.format(i),
                              policy=policies[i % len(policies)])
            for i in range(count)
        ]
        self.fault_active = self._stage_faults(rts, proc)
        if self.fault_active:
            host = rts.cluster.node(self.client_nodes(rts.cluster)[0])
            host.kernel.spawn_thread(self._run_faults, rts, name=self.kind, daemon=True)

    def _stage_faults(self, rts: RuntimeSystem, proc: "SimProcess") -> bool:
        """Prepare the fault schedule; ``False`` when this run has none."""
        return False

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        handle = self.handles[self._counter_for(request)]
        if request.is_write:
            return rts.invoke(proc, handle, "add", (1,))
        return rts.invoke(proc, handle, "read")

    def validate(self, rts, proc, totals):
        total = sum(rts.invoke(proc, handle, "read") for handle in self.handles)
        assert total == totals["writes"], (
            f"{self.kind} lost or duplicated updates: {total} != {totals['writes']}")
        facts: Dict[str, Any] = {self.total_key: total}
        if self.fault_key is not None:
            facts[self.fault_key] = self.fault_active
        if self.fault_active:
            facts.update(self._fault_facts(rts))
        return facts


@scenario("counter-farm")
class CounterFarm(Counters):
    """``num_keys`` independent counters; key popularity picks which one."""


@scenario("hot-spot")
class HotSpotCell(Counters):
    """Every request, read or write, hits one shared cell (max contention)."""

    spec_defaults = dict(num_keys=1, read_fraction=0.5)
    name_pattern = "hot-cell"
    num_counters = 1
    total_key = "cell_value"

    def _counter_for(self, request: Request) -> int:
        return 0


@scenario("hotspot-shift")
class HotspotShift(Counters):
    """A counter farm whose hot keys rotate with the workload phase.

    The sampled key is rotated by ``phase * stride`` (a phase is also an
    arrival-trace segment), so consecutive phases put the Zipf-hottest
    counters on *different* shards under the id-hash placement: the moving
    hotspot a static placement cannot follow but online rebalancing can.
    """

    spec_defaults = dict(num_keys=16, popularity="zipfian", zipf_s=1.3,
                         read_fraction=0.5, client_model="open",
                         arrival_trace=((0.02, 800.0), (0.02, 800.0),
                                        (0.02, 800.0)))

    @property
    def stride(self) -> int:
        # num_keys // 4 + 1 is coprime-ish with the usual shard counts, so
        # the rotated hotspot does not stay pinned to one group.
        return max(1, self.spec.num_keys // 4 + 1)

    def _counter_for(self, request: Request) -> int:
        return (request.key + request.phase * self.stride) % self.spec.num_keys


@scenario("multi-tenant-noisy-neighbour")
class NoisyNeighbour(Counters):
    """A quiet tenant and a rate-capped noisy one sharing a counter farm.

    The noisy tenant offers far more than its token-bucket quota; the
    gateway tier must shed the excess at admission and fair-queue the rest,
    so the quiet tenant's latency barely moves.  Without ``gateway=`` the
    tenant list is inert: a plain open-loop counter farm.
    """

    spec_defaults = dict(
        num_keys=16, read_fraction=0.9,
        client_model="open", arrival_rate=150.0, ops_per_client=30,
        tenants=(
            TenantSpec(name="quiet", sessions=4, weight=1.0, priority=1),
            TenantSpec(name="noisy", sessions=8, weight=1.0, priority=0,
                       rate=300.0, burst=30.0, arrival_rate=600.0),
        ))


@scenario("flash-crowd")
class FlashCrowd(Counters):
    """Calm / overload / calm arrival phases piling onto one hot counter.

    The middle phase multiplies the arrival rate and sends every request to
    counter 0 ("everyone refreshes the same page").  With a bounded accept
    queue and priority shedding, admitted-request p99 stays near the
    unloaded cell's; without admission control the backlog, and p99, grow
    with the length of the crowd phase.
    """

    #: Open-loop arrival rate of the calm phases.
    calm_rate = 100.0
    #: Crowd-phase arrival-rate multiplier over the calm phases.
    overload = 4.0
    spec_defaults = dict(
        num_keys=8, read_fraction=0.9,
        client_model="open", arrival_rate=calm_rate,
        phases=(
            PhaseSpec(ops_per_client=10, arrival_rate=calm_rate),
            PhaseSpec(ops_per_client=40, arrival_rate=calm_rate * overload),
            PhaseSpec(ops_per_client=10, arrival_rate=calm_rate),
        ),
        tenants=(
            TenantSpec(name="premium", sessions=2, weight=2.0, priority=1),
            TenantSpec(name="standard", sessions=6, weight=1.0, priority=0),
        ))

    def _counter_for(self, request: Request) -> int:
        return 0 if request.phase == 1 else request.key


@scenario("diurnal-trace")
class DiurnalTrace(Counters):
    """A counter farm under a deterministic day-curve ``arrival_trace``.

    Night trickle, morning ramp, midday peak, evening tail — replayed as
    piecewise-Poisson segments, so one run sweeps the gateway through
    idle, nominal and saturated operating points.
    """

    spec_defaults = dict(
        num_keys=16, popularity="zipfian", zipf_s=1.1,
        read_fraction=0.9, client_model="open",
        arrival_trace=((0.02, 50.0),    # night
                       (0.02, 250.0),   # morning ramp
                       (0.02, 600.0),   # midday peak
                       (0.02, 150.0)),  # evening
        tenants=(
            TenantSpec(name="interactive", sessions=4, weight=2.0, priority=1),
            TenantSpec(name="batch", sessions=4, weight=1.0, priority=0,
                       rate=400.0),
        ))


class SeatChurn(Counters):
    """Mixed-policy counters whose primary seats sit on nodes that go down.

    The *victims* (:meth:`victims_for`) host no clients, and every primary
    seat is parked on them round-robin, so each crash takes a live primary
    down while clients keep writing through it.
    """

    # Think time stretches the run across the whole fault schedule.
    spec_defaults = dict(num_keys=8, read_fraction=0.5, think_time=0.0005)
    policies = ("primary-invalidate", "primary-update", "broadcast", "adaptive")
    fault_key = "churn_active"
    #: The runtime method that lets every counter survive the schedule; a
    #: runtime without it (or without broadcast) runs the traffic crash-free.
    survival_method: str

    @classmethod
    @abstractmethod
    def victims_for(cls, num_nodes: int) -> Tuple[int, ...]:
        """The node ids the schedule takes down in a ``num_nodes`` cluster."""

    def client_nodes(self, cluster) -> List[int]:
        reserved = set(self.victims_for(cluster.num_nodes))
        return [node.node_id for node in cluster.nodes if node.node_id not in reserved]

    def _stage_faults(self, rts: RuntimeSystem, proc: "SimProcess") -> bool:
        if not _broadcast_runtime_with(rts, self.survival_method):
            return False
        self.victims = self.victims_for(rts.cluster.num_nodes)
        if not self.victims:
            return False
        # Park every primary seat on a victim, round-robin, so each crash
        # takes a live primary down and each rejoin has seats to re-seat.
        seat = 0
        for handle in self.handles:
            if rts.policy_of(handle) in ("primary-invalidate", "primary-update"):
                rts.relocate_primary(proc, handle, target=self.victims[seat % len(self.victims)])
                seat += 1
        return True


@scenario("primary-churn")
class PrimaryChurn(SeatChurn):
    """Counters under every management policy while their primaries die.

    The victims are killed on a fixed schedule while the request mix keeps
    flowing; on the unified runtime over a broadcast-capable network every
    counter must survive with exactly-once semantics.
    """

    name_pattern = "churn[{}]"
    survival_method = "relocate_primary"
    #: Virtual times at which the victims die, one entry per victim.
    crash_times = (0.004, 0.009)

    @classmethod
    def victims_for(cls, num_nodes: int) -> Tuple[int, ...]:
        """The highest-numbered nodes, one per crash time, keeping two alive.

        A real kill run must SIGKILL these same nodes, or the two backends'
        client sets — and therefore their request streams — diverge.
        """
        count = min(len(cls.crash_times), max(0, num_nodes - 2))
        return tuple(num_nodes - 1 - i for i in range(count))

    def _run_faults(self, rts: RuntimeSystem) -> None:
        proc = rts.cluster.sim.current_process
        for crash_at, victim in zip(self.crash_times, self.victims):
            _hold_until(proc, crash_at)
            rts.cluster.node(victim).crash()

    def _fault_facts(self, rts: RuntimeSystem) -> Dict[str, Any]:
        crashed = [victim for victim in self.victims if not rts.cluster.node(victim).alive]
        return {"crashed_nodes": crashed, "recoveries": rts.stats.primary_recoveries}


@scenario("rolling-restart")
class RollingRestart(SeatChurn):
    """Mixed-policy counters while every non-client node restarts in turn.

    Every machine but the first two is a victim: crashed, dead for a
    moment, recovered with its memory wiped, and polled until the runtime
    reports it caught back up (history reseeded, membership re-armed)
    before the next victim goes down.
    """

    name_pattern = "roll[{}]"
    # Only a runtime with a rejoin protocol catches a wiped machine up.
    survival_method = "is_caught_up"
    #: Virtual time of the first crash.
    first_crash_at = 0.003
    #: How long a victim stays dead before it is recovered.
    dwell = 0.0015
    #: Pause between a victim reporting caught-up and the next crash.
    gap = 0.001
    #: Catch-up poll interval (and its safety bound, in polls).
    poll = 0.0005
    max_polls = 2000
    #: How many victims have restarted and caught up, in schedule order.
    restarted = 0

    @classmethod
    def victims_for(cls, num_nodes: int) -> Tuple[int, ...]:
        # Keep the first two machines for clients; roll everything else.
        return tuple(range(2, num_nodes))

    def _run_faults(self, rts: RuntimeSystem) -> None:
        proc = rts.cluster.sim.current_process
        _hold_until(proc, self.first_crash_at)
        for victim in self.victims:
            rts.cluster.node(victim).crash()
            proc.hold(self.dwell)
            rts.cluster.node(victim).recover()
            for _ in range(self.max_polls):
                if rts.is_caught_up(victim):
                    break
                proc.hold(self.poll)
            else:  # pragma: no cover - deterministic safety bound
                raise AssertionError(f"node {victim} never caught up after recovery")
            self.restarted += 1
            proc.hold(self.gap)

    def validate(self, rts, proc, totals):
        if self.fault_active:
            # Clients may drain before the last restart ends; the daemon
            # restarter must still run to completion, so wait it out, bounded.
            for _ in range(self.max_polls):
                if self.restarted == len(self.victims):
                    break
                proc.hold(self.poll)
        return super().validate(rts, proc, totals)

    def _fault_facts(self, rts: RuntimeSystem) -> Dict[str, Any]:
        assert self.restarted == len(self.victims), (
            f"restart schedule incomplete: {self.victims[:self.restarted]} != {self.victims}")
        dead = [n.node_id for n in rts.cluster.nodes if not n.alive]
        assert not dead, f"nodes still dead after rolling restart: {dead}"
        return {"restarted_nodes": list(self.victims[:self.restarted]),
                "rejoins": rts.stats.node_rejoins,
                "reseeded": sum(r.objects_reseeded for r in rts.rejoins)}


@scenario("scale-in")
class ScaleIn(Counters):
    """A counter farm whose broadcast-group count shrinks under load.

    Run it with ``num_shards`` > 1: at each scheduled time ``remove_shard``
    merges the highest-numbered active group away under live traffic, so
    objects are evacuated through their group's total order.  With one group,
    or no live group removal, the traffic runs unchanged.
    """

    spec_defaults = dict(num_keys=16, read_fraction=0.5, think_time=0.0005)
    name_pattern = "farm[{}]"
    fault_key = "scale_active"
    #: Virtual times at which one group is merged away.
    shrink_times = (0.004, 0.008)

    def _stage_faults(self, rts: RuntimeSystem, proc: "SimProcess") -> bool:
        return (_broadcast_runtime_with(rts, "remove_shard")
                and getattr(rts, "router", None) is not None
                and rts.router.num_active_shards > 1)

    def _run_faults(self, rts: RuntimeSystem) -> None:
        proc = rts.cluster.sim.current_process
        for shrink_at in self.shrink_times:
            _hold_until(proc, shrink_at)
            active = rts.router.active_shards()
            if len(active) <= 1:
                break
            rts.remove_shard(proc, active[-1])

    def _fault_facts(self, rts: RuntimeSystem) -> Dict[str, Any]:
        return {"shards_removed": rts.stats.shards_removed,
                "active_shards": rts.router.num_active_shards,
                "removed": list(rts.removed_shards)}


@scenario("kv-table")
class KVTable(Scenario):
    """One shared dictionary; reads look keys up, writes overwrite them."""

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        self.handles = [rts.create_object(proc, DictObject, name="kv-table")]

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        handle = self.handles[0]
        key = f"k{request.key}"
        if request.is_write:
            return rts.invoke(proc, handle, "store", (key, request.seq))
        return rts.invoke(proc, handle, "lookup", (key,))

    def validate(self, rts, proc, totals):
        size = rts.invoke(proc, self.handles[0], "size")
        assert size <= min(self.spec.num_keys, max(1, totals["writes"])), (
            f"kv table grew beyond its key space: {size}")
        return {"kv_size": size}


@scenario("fifo-queue")
class FifoJobQueue(Scenario):
    """Producer/consumer traffic on a FIFO queue.

    Write requests produce (``put``); read requests consume (``poll``).  Both
    are RTS-level writes, since a dequeue mutates every replica, so this
    kind stresses the write path of whichever coherence protocol runs it.
    """

    # Balanced produce/consume keeps the queue short but never starved.
    spec_defaults = dict(read_fraction=0.5)

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        self.handles = [rts.create_object(proc, PollableQueue, name="job-queue")]

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        handle = self.handles[0]
        if request.is_write:
            return rts.invoke(proc, handle, "put", (request.seq,))
        return rts.invoke(proc, handle, "poll")

    def validate(self, rts, proc, totals):
        queue_totals = rts.invoke(proc, self.handles[0], "totals")
        backlog = rts.invoke(proc, self.handles[0], "size")
        assert queue_totals["enqueued"] == totals["writes"]
        assert queue_totals["enqueued"] - queue_totals["dequeued"] == backlog
        return {"backlog": backlog, **queue_totals}


@scenario("read-mostly-catalog")
class ReadMostlyCatalog(Scenario):
    """A preloaded catalog served to readers, with rare in-place updates."""

    spec_defaults = dict(read_fraction=0.98, num_keys=32, popularity="zipfian", zipf_s=1.2)

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        catalog = rts.create_object(proc, DictObject, name="catalog")
        for key in range(self.spec.num_keys):
            rts.invoke(proc, catalog, "store", (f"k{key}", 0))
        self.handles = [catalog]

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        key = f"k{request.key}"
        if request.is_write:
            return rts.invoke(proc, self.handles[0], "store", (key, request.seq))
        return rts.invoke(proc, self.handles[0], "lookup", (key,))

    def _catalog_size(self, rts: RuntimeSystem, proc: "SimProcess") -> int:
        size = rts.invoke(proc, self.handles[0], "size")
        assert size == self.spec.num_keys, (f"catalog size changed: {size} != {self.spec.num_keys}")
        return size

    def validate(self, rts, proc, totals):
        return {"catalog_size": self._catalog_size(rts, proc)}


@scenario("policy-mix")
class PolicyMix(ReadMostlyCatalog):
    """A read-mostly catalog and a write-hot ledger under different policies.

    Reads look up catalog entries (replication-friendly); writes increment
    one ledger (replication-hostile) created with
    ``policy="primary-invalidate"``, so on the unified runtime two
    management strategies share one cluster.  Runtimes that manage every
    object one way ignore the policy.
    """

    spec_defaults = dict(num_keys=16, read_fraction=0.9, popularity="zipfian", zipf_s=1.1)

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        super().setup(rts, proc)
        self.handles.append(rts.create_object(proc, IntObject, (0,), name="ledger",
                                              policy="primary-invalidate"))

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        if request.is_write:
            return rts.invoke(proc, self.handles[1], "add", (1,))
        return rts.invoke(proc, self.handles[0], "lookup", (f"k{request.key}",))

    def validate(self, rts, proc, totals):
        total = rts.invoke(proc, self.handles[1], "read")
        facts = {"ledger_total": total, "catalog_size": self._catalog_size(rts, proc)}
        assert total == totals["writes"], (f"ledger lost updates: {total} != {totals['writes']}")
        policy_of = getattr(rts, "policy_of", None)
        if policy_of is not None:
            facts["policies"] = {h.name: policy_of(h) for h in self.handles}
        return facts


def supports_transactions(rts: RuntimeSystem) -> bool:
    """Can this runtime commit cross-object groups atomically?

    The transactional kinds record this in ``setup`` and, where it is false,
    fall back to sequential per-object writes, so they run on every runtime.
    """
    return _broadcast_runtime_with(rts, "transact")


@scenario("bank-transfer")
class BankTransfer(Scenario):
    """Guarded accounts with atomic two-account transfers.

    A write moves a small amount from the sampled account to a
    deterministic partner as one guarded withdraw-plus-deposit transaction,
    so the balances always sum to the initial endowment, no matter which
    nodes crash mid-protocol.  Insufficient funds abort the transfer
    (counted, not retried).
    """

    INITIAL_BALANCE = 100
    spec_defaults = dict(num_keys=8, read_fraction=0.5)
    #: Transfers committed and aborted so far.
    transfers = 0
    aborted = 0

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        self.transactional = supports_transactions(rts)
        self.handles = [
            rts.create_object(proc, BankAccount, (self.INITIAL_BALANCE,), name=f"acct[{i}]")
            for i in range(self.spec.num_keys)
        ]

    def _partner(self, request: Request) -> int:
        if self.spec.num_keys < 2:
            return request.key
        offset = 1 + request.seq % (self.spec.num_keys - 1)
        return (request.key + offset) % self.spec.num_keys

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        src = self.handles[request.key]
        if not request.is_write:
            return rts.invoke(proc, src, "read")
        dst = self.handles[self._partner(request)]
        amount = request.seq % 5 + 1
        if self.transactional:
            try:
                result = rts.transact(proc, [(src, "withdraw", (amount,)),
                                             (dst, "deposit", (amount,))],
                                      on_guard="abort")
            except TransactionAborted:
                self.aborted += 1
                return None
            self.transfers += 1
            return result
        # Sequential fallback: deposit first, then an unguarded adjust, so
        # no client ever blocks on a drained account.  Conserving, but not
        # atomic — which is exactly the contrast the scenario documents.
        rts.invoke(proc, dst, "deposit", (amount,))
        self.transfers += 1
        return rts.invoke(proc, src, "adjust", (-amount,))

    def validate(self, rts, proc, totals):
        total = sum(rts.invoke(proc, handle, "read") for handle in self.handles)
        endowment = self.INITIAL_BALANCE * self.spec.num_keys
        assert total == endowment, (f"bank transfers broke conservation: {total} != {endowment}")
        return {"bank_total": total, "transfers_committed": self.transfers,
                "transfers_aborted": self.aborted, "transactional": self.transactional}


@scenario("kv-index")
class KVIndexed(Scenario):
    """A table and its secondary index kept consistent atomically.

    Every write stores the same entry into the table *and* the index as one
    transaction.  With writers racing on hot keys, the mirror
    ``table[k] == index[k]`` survives only if the two stores really commit
    as one: sequential writes can interleave as T1.table, T2.table,
    T2.index, T1.index and leave the index pointing at a value the table no
    longer holds.  So validation is a direct serializability check (on the
    sequential fallback it reports the mirror rather than asserting it).
    """

    spec_defaults = dict(num_keys=8, read_fraction=0.7, popularity="zipfian", zipf_s=1.2)

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        self.transactional = supports_transactions(rts)
        table = rts.create_object(proc, DictObject, name="kv-primary")
        index = rts.create_object(proc, DictObject, name="kv-index")
        self.handles = [table, index]

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        table, index = self.handles
        key = f"k{request.key}"
        if not request.is_write:
            return rts.invoke(proc, table, "lookup", (key,))
        value = request.seq
        if self.transactional:
            return rts.transact(proc, [(table, "store", (key, value)),
                                       (index, "store", (key, value))])
        rts.invoke(proc, table, "store", (key, value))
        return rts.invoke(proc, index, "store", (key, value))

    def validate(self, rts, proc, totals):
        table, index = self.handles
        mismatches = 0
        for k in range(self.spec.num_keys):
            key = f"k{k}"
            main = rts.invoke(proc, table, "lookup", (key,))
            mirror = rts.invoke(proc, index, "lookup", (key,))
            if main != mirror:
                mismatches += 1
        if self.transactional:
            assert mismatches == 0, (f"secondary index diverged from table on {mismatches} keys")
        return {"index_mismatches": mismatches, "table_size": rts.invoke(proc, table, "size"),
                "transactional": self.transactional}


@scenario("queue-move")
class QueueMove(Scenario):
    """Producer traffic plus atomic inbox-to-outbox moves.

    Even-sequence writes produce into the inbox; odd-sequence writes move
    one item to the outbox in a transaction pairing the inbox's guarded
    ``take`` with an outbox ``put``, so a move from an empty inbox aborts
    instead of conjuring an item.  Inbox dequeues, outbox enqueues and
    committed moves must agree exactly.  Reads poll queue sizes.  The
    sequential fallback is poll-then-put, skipping the put after an empty
    poll.
    """

    spec_defaults = dict(num_keys=2, read_fraction=0.3)
    #: Items produced, moves committed and moves aborted so far.
    produced = 0
    moves = 0
    aborted = 0

    def setup(self, rts: RuntimeSystem, proc: "SimProcess") -> None:
        self.transactional = supports_transactions(rts)
        inbox = rts.create_object(proc, PollableQueue, name="inbox")
        outbox = rts.create_object(proc, PollableQueue, name="outbox")
        self.handles = [inbox, outbox]

    def perform(self, rts: RuntimeSystem, proc: "SimProcess", request: Request) -> Any:
        inbox, outbox = self.handles
        if not request.is_write:
            return rts.invoke(proc, self.handles[request.key % 2], "size")
        if request.seq % 2 == 0:
            self.produced += 1
            return rts.invoke(proc, inbox, "put", (request.seq,))
        if self.transactional:
            try:
                result = rts.transact(proc, [(inbox, "take"),
                                             (outbox, "put", (request.seq,))],
                                      on_guard="abort")
            except TransactionAborted:
                self.aborted += 1
                return None
            self.moves += 1
            return result
        item = rts.invoke(proc, inbox, "poll")
        if item is None:
            self.aborted += 1
            return None
        self.moves += 1
        return rts.invoke(proc, outbox, "put", (item,))

    def validate(self, rts, proc, totals):
        inbox, outbox = self.handles
        totals_in = rts.invoke(proc, inbox, "totals")
        totals_out = rts.invoke(proc, outbox, "totals")
        backlog_in = rts.invoke(proc, inbox, "size")
        backlog_out = rts.invoke(proc, outbox, "size")
        assert totals_in["enqueued"] == self.produced, (
            f"inbox lost produced items: {totals_in['enqueued']} != {self.produced}")
        assert totals_in["dequeued"] == totals_out["enqueued"] == self.moves, (
            f"moves are not atomic: took {totals_in['dequeued']}, delivered "
            f"{totals_out['enqueued']}, committed {self.moves}")
        assert backlog_in == self.produced - self.moves
        assert backlog_out == self.moves
        return {"produced": self.produced, "moves": self.moves, "moves_aborted": self.aborted,
                "inbox_backlog": backlog_in, "outbox_backlog": backlog_out,
                "transactional": self.transactional}
