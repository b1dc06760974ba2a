"""The workload runner: simulated clients driving scenarios on any runtime.

:class:`WorkloadRunner` assembles a cluster, builds one of the four runtime
systems (broadcast RTS, point-to-point RTS, central-server baseline, Ivy DSM
baseline), runs a scenario's setup, then spawns ``clients_per_node``
simulated client processes on every node.  Each client issues the request
stream its :class:`~repro.workloads.spec.WorkloadSpec` describes — closed
loop with think times, or open loop with Poisson arrivals — and records the
virtual-time latency of every request.

Latency is collected at two levels:

* **request latency** — what a client observed, measured from the *intended*
  arrival time under the open-loop model (so queueing delay counts);
* **runtime latency** — per-invocation latency recorded inside the runtime
  system (:meth:`~repro.rts.base.RuntimeSystem.attach_latency_recorder`).

Everything is deterministic under a fixed seed: clients draw keys, mixes,
think times and arrival gaps from per-client named rng streams, so two runs
of the same configuration produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..amoeba.cluster import Cluster
from ..baselines.central_server import CentralServerRts
from ..baselines.ivy_dsm import IvyObjectRuntime
from ..config import ClusterConfig, params_from
from ..errors import ConfigurationError
from ..metrics.latency import LatencyRecorder
from ..rts.base import RuntimeSystem
from ..rts.hybrid import HybridRts
from ..rts.policy import DEFAULT_POLICY_FOR_KIND
from ..rts.sharding import BatchingParams
from .scenarios import Scenario, ScenarioRegistry
from .spec import WorkloadSpec, client_schedule, client_stream

#: Every runtime kind the runner can sweep.  ``broadcast``/``p2p`` are the
#: fixed-policy configurations of the unified runtime; ``adaptive`` lets
#: every object migrate between the policies on its observed read/write mix.
RUNTIME_KINDS = ("broadcast", "p2p", "central", "ivy", "adaptive")

#: Runtime kinds that may need the totally-ordered broadcast groups.
_BROADCAST_CAPABLE = ("broadcast", "adaptive")


def build_runtime(cluster: Cluster, kind: str,
                  options: Optional[Dict[str, Any]] = None) -> RuntimeSystem:
    """Instantiate one of the runtime systems on ``cluster``."""
    options = dict(options or {})
    if kind in DEFAULT_POLICY_FOR_KIND:
        options.setdefault("default_policy", DEFAULT_POLICY_FOR_KIND[kind])
        return HybridRts(cluster, **options)
    if kind == "central":
        return CentralServerRts(cluster, **options)
    if kind == "ivy":
        return IvyObjectRuntime(cluster, **options)
    raise ConfigurationError(f"unknown runtime kind {kind!r} (use one of {RUNTIME_KINDS})")


def network_type_for(kind: str) -> str:
    """Broadcast-capable kinds need the shared Ethernet; the rest run
    point-to-point."""
    return "ethernet" if kind in _BROADCAST_CAPABLE else "switched"


@dataclass
class WorkloadReport:
    """Everything measured during one scenario x runtime workload run."""

    scenario: str
    runtime: str
    workload: str
    num_nodes: int
    num_clients: int
    total_ops: int
    reads: int
    writes: int
    #: Virtual seconds from first client start to last client completion.
    elapsed: float
    #: Requests per virtual second over the measurement window.
    throughput: float
    #: Client-observed request latency summaries (read / write / overall).
    request_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Runtime-level invocation latency summaries.
    rts_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    network: Dict[str, Any] = field(default_factory=dict)
    rts_summary: Dict[str, Any] = field(default_factory=dict)
    #: Scenario-specific post-run facts (counter totals, queue backlog, ...).
    scenario_facts: Dict[str, Any] = field(default_factory=dict)
    #: Broadcast-RTS scaling knobs this cell ran with (1 / None = classic).
    num_shards: int = 1
    batching: Optional[Dict[str, Any]] = None
    #: Simulator events the run processed (``None`` on the real backend).
    events: Optional[int] = None

    def percentile_row(self, kind: str = "overall") -> Dict[str, float]:
        """p50/p95/p99/mean (seconds) of one request-latency class."""
        summary = self.request_latency.get(kind, {})
        return {key: summary.get(key, 0.0) for key in ("p50", "p95", "p99", "mean")}

    def object_rows(self) -> Dict[str, Dict[str, Any]]:
        """The runtime's reconciled per-object summary (reads/writes/policy)."""
        return dict(self.rts_summary.get("per_object", {}))

    def final_policies(self) -> Dict[str, str]:
        """Object name -> management policy at the end of the run."""
        return {name: row.get("policy", "?") for name, row in self.object_rows().items()}

    def counters(self) -> Dict[str, Any]:
        """The run's exact totals: simulator events and bytes on the wire."""
        return {"events": self.events, "wire_bytes": self.network.get("wire_bytes")}

    def fingerprint(self) -> Dict[str, Any]:
        """A stable, rounded digest used by determinism checks and tests."""
        overall = self.percentile_row()
        extras: Dict[str, Any] = {}
        recovery = self.rts_summary.get("recovery")
        if recovery:
            # Primary takeovers (who died, who took over, from copy or
            # snapshot, how long the seat was dark) are part of the
            # behaviour the determinism regression pins down.
            extras["recovery"] = {
                "count": recovery["primary_recoveries"],
                "max_window": recovery["max_window"],
                "log": [list(entry) for entry in recovery["log"]],
            }
        elasticity = self.rts_summary.get("elasticity")
        if elasticity:
            # Rejoins, drains and group merges (who, how many objects were
            # reseeded, which seats moved) are behaviour the determinism
            # regression pins down, exactly like takeovers.
            extras["elasticity"] = {
                "node_rejoins": elasticity["node_rejoins"],
                "nodes_drained": elasticity["nodes_drained"],
                "shards_removed": elasticity["shards_removed"],
                "rejoin_log": [list(entry)
                               for entry in elasticity["rejoin_log"]],
            }
        transactions = self.rts_summary.get("transactions")
        if transactions:
            # Commit/abort/retry counts per path (same-shard vs 2PC) are
            # behaviour the determinism regression pins down; runs that
            # never transact carry no block at all, so pre-transaction
            # baselines stay byte-identical.
            extras["transactions"] = dict(sorted(transactions.items()))
        gateway = self.rts_summary.get("gateway")
        if gateway:
            # The gateway block is already fingerprint-stable (counters are
            # ints, latency summaries pre-rounded), so the whole admission/
            # shed/per-tenant behaviour is pinned by the determinism
            # regression; tier-less runs carry no block and stay
            # byte-identical to pre-gateway baselines.
            extras["gateway"] = gateway
        rebalancing = self.rts_summary.get("rebalancing")
        if rebalancing:
            # Where and when objects moved is part of the behaviour the
            # determinism regression must pin down, exactly like policies.
            extras["rebalancing"] = {
                "moves": rebalancing["moves"],
                "shards_added": rebalancing["shards_added"],
                "placement_epoch": rebalancing["placement_epoch"],
                "log": [list(entry) for entry in rebalancing["log"]],
            }
        return {
            **extras,
            **self.counters(),
            "scenario": self.scenario,
            "runtime": self.runtime,
            "num_shards": self.num_shards,
            "batching": self.batching,
            "ops": self.total_ops,
            "reads": self.reads,
            "writes": self.writes,
            "elapsed": round(self.elapsed, 9),
            "throughput": round(self.throughput, 6),
            "p50": round(overall["p50"], 9),
            "p95": round(overall["p95"], 9),
            "p99": round(overall["p99"], 9),
            "messages": self.network.get("messages"),
            "facts": dict(sorted(self.scenario_facts.items())),
            # Where every object ended up (policy switches are part of the
            # behaviour the determinism regression must pin down).
            "policies": dict(sorted(self.final_policies().items())),
        }


class WorkloadRunner:
    """Run one scenario under one workload spec on one runtime system."""

    def __init__(self, scenario: str, workload: Optional[WorkloadSpec] = None,
                 runtime: str = "broadcast", num_nodes: int = 8,
                 clients_per_node: int = 1, seed: int = 42,
                 num_shards: int = 1, batching: Optional[Any] = None,
                 rts_options: Optional[Dict[str, Any]] = None,
                 config: Optional[ClusterConfig] = None,
                 network_type: Optional[str] = None,
                 backend: str = "sim",
                 gateway: Optional[Any] = None) -> None:
        """``network_type`` overrides the runtime's natural interconnect
        (e.g. run the p2p runtime on the shared Ethernet so a cross-runtime
        comparison holds the hardware fixed).

        ``backend`` selects the execution substrate: ``"sim"`` (default)
        runs inside the deterministic discrete-event simulator; ``"real"``
        runs the same scenario across real OS processes over UDP sockets
        (see :mod:`repro.net`), reporting real wall-clock throughput.

        ``gateway`` switches the client edge to the session tier
        (:mod:`repro.gateway`): ``True`` / a dict of
        :class:`~repro.gateway.GatewayParams` fields / params.  Instead of
        ``clients_per_node`` simulated client processes, each client node
        hosts one gateway driving the spec's tenant sessions through
        admission control, weighted fair queueing and overload shedding.
        ``None`` (default) keeps the classic runner.
        """
        if backend not in ("sim", "real"):
            raise ConfigurationError(f"unknown backend {backend!r} (use 'sim' or 'real')")
        self.backend = backend
        if gateway is not None:
            # Deferred import: the classic runner path must not pull in the
            # gateway tier (and repro.gateway imports workload specs).
            from ..gateway import GatewayParams

            if backend != "sim":
                raise ConfigurationError(
                    "the gateway tier is simulator-only; run backend='sim'")
            self.gateway = params_from(GatewayParams, gateway)
        else:
            self.gateway = None
        if backend == "real":
            if runtime != "broadcast":
                raise ConfigurationError(
                    "the real backend maps per-object policies itself; "
                    "select it with runtime='broadcast'")
            if batching is not None or rts_options or config or network_type:
                raise ConfigurationError(
                    "batching / rts_options / config / network_type are "
                    "simulator-only knobs; the real backend does not "
                    "accept them")
        if runtime not in RUNTIME_KINDS:
            raise ConfigurationError(
                f"unknown runtime kind {runtime!r} (use one of {RUNTIME_KINDS})")
        self.scenario_kind = scenario
        scenario_class = ScenarioRegistry.get(scenario)
        self.workload = workload or scenario_class.default_spec()
        self.runtime_kind = runtime
        self.num_nodes = num_nodes
        self.clients_per_node = clients_per_node
        self.seed = seed
        self.rts_options = dict(rts_options or {})
        # Sharding and batching are sweep axes of the broadcast mechanism.
        if num_shards != 1 or batching is not None:
            if runtime not in _BROADCAST_CAPABLE:
                raise ConfigurationError(
                    "num_shards / batching only apply to broadcast-capable "
                    f"runtimes {_BROADCAST_CAPABLE}")
            if num_shards != 1:
                self.rts_options.setdefault("num_shards", num_shards)
            if batching is not None:
                self.rts_options.setdefault("batching", batching)
        self.num_shards = int(self.rts_options.get("num_shards", 1))
        self.batching = self.rts_options.get("batching")
        self.config = config
        self.network_type = network_type or network_type_for(runtime)

    # ------------------------------------------------------------------ #

    def run(self) -> WorkloadReport:
        """Execute the workload to completion; returns the full report."""
        if self.backend == "real":
            # Deferred import: the sim path must not depend on repro.net.
            from ..net.runner import run_real_workload

            return run_real_workload(
                scenario=self.scenario_kind, workload=self.workload,
                num_nodes=self.num_nodes,
                clients_per_node=self.clients_per_node, seed=self.seed,
                num_shards=max(1, self.num_shards))
        config = self.config or ClusterConfig(num_nodes=self.num_nodes, seed=self.seed)
        cluster = Cluster(config, network_type=self.network_type)
        try:
            return self._run_on(cluster)
        finally:
            cluster.shutdown()

    def _run_on(self, cluster: Cluster) -> WorkloadReport:
        sim = cluster.sim
        rts = build_runtime(cluster, self.runtime_kind, self.rts_options)
        rts_recorder = LatencyRecorder()
        request_recorder = LatencyRecorder()
        scenario = ScenarioRegistry.create(self.scenario_kind, self.workload)
        spec = scenario.spec
        counts = {"reads": 0, "writes": 0, "clients": 0}
        window = {"start": 0.0, "end": 0.0}
        facts: Dict[str, Any] = {}

        def client_body(node_id: int, client_id: int) -> None:
            proc = sim.current_process
            rng = sim.rng.stream(client_stream(node_id, client_id))
            # Trace offsets count from the client's start.  The pacing is
            # per request's phase, so one client can switch between
            # closed-loop think/issue and open-loop Poisson arrivals
            # mid-stream (a "hybrid" client); the open-loop arrival clock
            # restarts at every closed->open handover instead of
            # back-filling arrivals for the time spent closed.
            start = next_arrival = proc.local_time
            prev_pacing = None
            for request, pacing, value in client_schedule(spec, rng):
                if pacing == "closed":
                    if value > 0.0:
                        proc.hold(value)
                    issued_at = proc.local_time
                else:
                    if pacing == "trace":
                        next_arrival = start + value
                    elif prev_pacing == "closed":
                        next_arrival = proc.local_time + value
                    else:
                        next_arrival += value
                    if proc.local_time < next_arrival:
                        proc.hold(next_arrival - proc.local_time)
                    # Intended arrival, not actual issue time: queueing delay
                    # counts toward latency (no coordinated omission).
                    issued_at = next_arrival
                prev_pacing = pacing
                scenario.perform(rts, proc, request)
                kind = "write" if request.is_write else "read"
                request_recorder.record(kind, proc.local_time - issued_at)
                counts["writes" if request.is_write else "reads"] += 1

        gateway_tier = None
        if self.gateway is not None:
            from ..gateway import GatewayTier

            gateway_tier = GatewayTier(rts, scenario, self.gateway,
                                       recorder=request_recorder,
                                       counts=counts)
            rts.gateway_tier = gateway_tier

        def orchestrator() -> None:
            proc = sim.current_process
            scenario.setup(rts, proc)
            proc.flush()
            # Record runtime-level latencies only over the measurement
            # window: setup and post-run validation stay out of the stats.
            rts.attach_latency_recorder(rts_recorder)
            window["start"] = proc.local_time
            # Scenario kinds that crash machines mid-run reserve them here,
            # so no client is stranded on a node scheduled to die.
            hosts = scenario.client_nodes(cluster)
            if gateway_tier is not None:
                clients = gateway_tier.build(cluster, hosts)
                counts["clients"] = gateway_tier.num_sessions
            else:
                clients = []
                counts["clients"] = len(hosts) * self.clients_per_node
                for node_id in hosts:
                    node = cluster.node(node_id)
                    for client_id in range(self.clients_per_node):
                        clients.append(node.kernel.spawn_thread(
                            client_body, node.node_id, client_id,
                            name=f"client{client_id}"))
            for client in clients:
                proc.join(client)
            window["end"] = proc.local_time
            rts.attach_latency_recorder(None)
            # A finished client only proves its writes were delivered at its
            # own node; broadcasts to the other replicas can still be in
            # flight at this instant.  Let them land before validation reads
            # local state.
            proc.hold(10 * cluster.cost_model.network.latency)
            facts.update(scenario.validate(rts, proc, counts))

        cluster.node(0).kernel.spawn_thread(orchestrator, name="workload")
        cluster.run()

        total_ops = counts["reads"] + counts["writes"]
        elapsed = max(window["end"] - window["start"], 1e-12)
        batch_params = params_from(BatchingParams, self.batching)
        batching_facts = (None if batch_params is None else
                          {"max_batch": batch_params.max_batch,
                           "flush_delay": batch_params.flush_delay})
        return WorkloadReport(
            scenario=self.scenario_kind,
            runtime=rts.name,
            workload=spec.name,
            num_nodes=cluster.num_nodes,
            num_clients=counts["clients"],
            total_ops=total_ops,
            reads=counts["reads"],
            writes=counts["writes"],
            elapsed=elapsed,
            throughput=total_ops / elapsed,
            request_latency=request_recorder.summaries(),
            rts_latency=rts_recorder.summaries(),
            network=cluster.network_summary(),
            rts_summary=rts.read_write_summary(),
            scenario_facts=facts,
            num_shards=self.num_shards,
            batching=batching_facts,
            events=sim.events_processed,
        )


def run_scenario_matrix(scenarios: List[str], runtimes: List[str],
                        workload: Optional[WorkloadSpec] = None,
                        **runner_kwargs: Any) -> List[WorkloadReport]:
    """Sweep scenarios x runtimes; returns one report per combination."""
    reports = []
    for scenario_kind in scenarios:
        for runtime_kind in runtimes:
            runner = WorkloadRunner(scenario_kind, workload=workload,
                                    runtime=runtime_kind, **runner_kwargs)
            reports.append(runner.run())
    return reports
