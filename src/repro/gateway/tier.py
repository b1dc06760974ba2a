"""The gateway tier: per-node gateways plus cluster-wide tenant accounting.

:class:`GatewayTier` is what a gateway-mode workload run attaches to the
runtime (``rts.gateway_tier``): it builds one :class:`Gateway` per client
node, resolves per-tenant workload overrides once, aggregates per-tenant
latency histograms and shed counters across gateways, and renders the
``read_write_summary()["gateway"]`` block.  Runs that never attach a tier
carry no block at all, which is what keeps every pre-gateway baseline
byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..metrics.latency import LatencyHistogram, LatencyRecorder, rounded_summary
from ..workloads.spec import Request, TenantSpec, WorkloadSpec
from .gateway import Gateway, TenantState
from .params import GatewayParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.cluster import Cluster
    from ..rts.base import RuntimeSystem
    from ..sim.process import SimProcess
    from ..workloads.scenarios import Scenario

#: The tenant a tenant-less spec runs under (single-class traffic).
DEFAULT_TENANT = TenantSpec(name="default")


class GatewayTier:
    """All gateways of one run, plus the cross-gateway tenant rollup."""

    def __init__(self, rts: "RuntimeSystem", scenario: "Scenario",
                 params: GatewayParams,
                 recorder: Optional[LatencyRecorder] = None,
                 counts: Optional[Dict[str, int]] = None) -> None:
        self.rts = rts
        self.scenario = scenario
        self.spec: WorkloadSpec = scenario.spec
        self.params = params
        self.tenant_specs = self.spec.tenants or (DEFAULT_TENANT,)
        #: Client-observed latency of completed requests (read/write), the
        #: same recorder the classic runner feeds; optional so the tier
        #: also works standalone in tests.
        self.recorder = recorder if recorder is not None else LatencyRecorder()
        self.counts = counts if counts is not None else {"reads": 0, "writes": 0}
        self.gateways: List[Gateway] = []
        self._tenant_latency: Dict[str, LatencyHistogram] = {
            spec.name: LatencyHistogram() for spec in self.tenant_specs}
        self._tenant_workloads: Dict[str, WorkloadSpec] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def tenant_workload(self, tenant: TenantSpec) -> WorkloadSpec:
        """The run's spec with this tenant's pacing overrides applied."""
        cached = self._tenant_workloads.get(tenant.name)
        if cached is not None:
            return cached
        overrides: Dict[str, Any] = {}
        if tenant.arrival_rate is not None:
            overrides["arrival_rate"] = tenant.arrival_rate
        if tenant.think_time is not None:
            overrides["think_time"] = tenant.think_time
        if tenant.ops_per_session is not None:
            overrides["ops_per_client"] = tenant.ops_per_session
        spec = self.spec.with_overrides(**overrides) if overrides else self.spec
        self._tenant_workloads[tenant.name] = spec
        return spec

    def build(self, cluster: "Cluster", hosts: List[int]) -> List["SimProcess"]:
        """Create one gateway per host node; returns every spawned process."""
        procs: List["SimProcess"] = []
        for node_id in hosts:
            gateway = Gateway(self, cluster.node(node_id), self.params)
            self.gateways.append(gateway)
            procs.extend(gateway.start())
        return procs

    @property
    def num_sessions(self) -> int:
        """Concurrent sessions across all gateways."""
        per_gateway = sum(spec.sessions for spec in self.tenant_specs)
        return per_gateway * len(self.gateways)

    # ------------------------------------------------------------------ #
    # Accounting hooks (called by gateways)
    # ------------------------------------------------------------------ #

    def note_completion(self, tenant: TenantState, request: Request,
                        latency: float) -> None:
        self._tenant_latency[tenant.name].record(latency)
        kind = "write" if request.is_write else "read"
        self.recorder.record(kind, latency)
        self.counts["writes" if request.is_write else "reads"] += 1

    def note_shed(self, tenant: TenantState, request: Request,
                  reason: str) -> None:
        """Per-gateway counters already track sheds; hook kept for tests."""

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def summary(self) -> Dict[str, Any]:
        """The ``read_write_summary()["gateway"]`` block (fingerprint-stable)."""
        tenants: Dict[str, Any] = {}
        for spec in sorted(self.tenant_specs, key=lambda t: t.name):
            offered = admitted = completed = 0
            shed: Dict[str, int] = {}
            for gateway in self.gateways:
                for state in gateway.tenants:
                    if state.name != spec.name:
                        continue
                    offered += state.offered
                    admitted += state.admitted
                    completed += state.completed
                    for reason, count in state.shed.items():
                        shed[reason] = shed.get(reason, 0) + count
            tenants[spec.name] = {
                "weight": spec.weight,
                "priority": spec.priority,
                "rate": spec.rate,
                "sessions": spec.sessions * len(self.gateways),
                "offered": offered,
                "admitted": admitted,
                "completed": completed,
                "shed": dict(sorted(shed.items())),
                "latency": rounded_summary(
                    self._tenant_latency[spec.name].summary()),
            }
        total_offered = sum(row["offered"] for row in tenants.values())
        total_completed = sum(row["completed"] for row in tenants.values())
        return {
            "params": {
                "workers": self.params.workers,
                "accept_queue": self.params.accept_queue,
                "shed_depth": self.params.shed_depth,
            },
            "gateways": len(self.gateways),
            "sessions": self.num_sessions,
            "offered": total_offered,
            "completed": total_completed,
            "shed": total_offered - total_completed,
            "tenants": tenants,
        }
