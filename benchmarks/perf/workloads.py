"""The six pinned workloads: what each one runs, at what size, and why.

A workload is a fixed *operation count* (never a duration): one timed repeat
runs ``expected_ops`` client operations to completion.  Sizes were chosen on
a 2-vCPU VM, pinned to one CPU, so that one repeat takes 1-1.5 s of host
time; the runner repeats it until its time budget is spent.

All six are closed loops in host time: the simulator is not serving a
wall-clock arrival process, and each client of the real backend waits for
its reply before it sends again.  ``gateway-fleet`` has an open-loop arrival
process *inside the model* (virtual time), which the host runs as fast as it
can like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.workloads import TenantSpec, WorkloadSpec
from repro.workloads.scenarios import ScenarioRegistry


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at scale 1."""

    name: str
    why: str
    scenario: str
    spec: WorkloadSpec
    num_nodes: int
    clients_per_node: int = 2
    runtime: str = "broadcast"
    num_shards: int = 1
    gateway: Optional[Dict[str, Any]] = None
    backend: str = "sim"

    def sized(self, scale: float) -> WorkloadSpec:
        """The spec with its operation count scaled (the mix is unchanged)."""
        if self.spec.tenants:
            # A fleet shrinks by having fewer sessions, not shorter ones.
            tenants = tuple(
                replace(tenant, sessions=max(1, round(tenant.sessions * scale)))
                for tenant in self.spec.tenants
            )
            return self.spec.with_overrides(tenants=tenants)
        return self.spec.with_overrides(
            ops_per_client=max(1, round(self.spec.ops_per_client * scale))
        )

    def expected_ops(self, spec: WorkloadSpec) -> int:
        """Client operations one run of ``spec`` must complete."""
        if spec.tenants:
            sessions = sum(tenant.sessions for tenant in spec.tenants)
            return self.num_nodes * sessions * spec.ops_per_client
        return self.num_nodes * self.clients_per_node * spec.ops_per_client


def _counter_farm(name: str, **fields: Any) -> WorkloadSpec:
    return WorkloadSpec(name=name, num_keys=32, think_time=0.0005, **fields)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="bcast-write-storm",
            why="every op is a sequenced broadcast to 16 members: event queue and amoeba "
            "broadcast path carry the load",
            scenario="counter-farm",
            spec=_counter_farm("bcast-write-storm", read_fraction=0.0, ops_per_client=100),
            num_nodes=16,
        ),
        Workload(
            name="local-read-mostly",
            why="95% local-replica reads: client loop, rts.invoke fast path and process "
            "hand-off; bypasses broadcast, RPC and txn",
            scenario="counter-farm",
            spec=_counter_farm("local-read-mostly", read_fraction=0.95, ops_per_client=1500),
            num_nodes=8,
        ),
        Workload(
            name="primary-rpc-mix",
            why="primary-copy runtime on the switched network: writes and remote reads go by "
            "RPC, so rts and amoeba are used differently from the storm",
            scenario="counter-farm",
            spec=_counter_farm("primary-rpc-mix", read_fraction=0.7, ops_per_client=250),
            num_nodes=8,
            runtime="p2p",
        ),
        Workload(
            name="txn-bank-transfer",
            why="atomic two-account transfers over 4 shards, most of them cross-shard 2PC: the "
            "only workload where txn/ carries the load",
            scenario="bank-transfer",
            spec=ScenarioRegistry.get("bank-transfer")
            .default_spec()
            .with_overrides(name="txn-bank-transfer", ops_per_client=100),
            num_nodes=8,
            num_shards=4,
        ),
        Workload(
            name="gateway-fleet",
            why="thousands of open-loop sessions through token bucket, accept queue, fair "
            "queue and worker pool: the only workload where gateway/ is hot",
            scenario="counter-farm",
            spec=WorkloadSpec(
                name="gateway-fleet",
                num_keys=64,
                read_fraction=0.9,
                client_model="open",
                arrival_rate=4.0,
                ops_per_client=6,
                tenants=(TenantSpec(name="fleet", sessions=200),),
            ),
            num_nodes=8,
            gateway={"workers": 8, "accept_queue": 256},
        ),
        Workload(
            name="real-udp-mix",
            why="three OS processes over loopback UDP, no simulator: the only workload that "
            "runs net/ and its second protocol engine",
            scenario="counter-farm",
            spec=WorkloadSpec(
                name="real-udp-mix",
                num_keys=16,
                read_fraction=0.5,
                think_time=0.0,
                ops_per_client=1000,
            ),
            num_nodes=3,
            clients_per_node=1,
            num_shards=2,
            backend="real",
        ),
    )
}
