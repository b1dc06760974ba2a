"""WORKLOADS — synthetic shared-object traffic across all five runtimes.

The paper reports aggregate speedup for four hand-written applications; this
benchmark instead drives the runtimes with parameterised synthetic traffic
(the workload subsystem) and reports *latency distributions* — p50/p95/p99 —
and throughput per scenario, in the spirit of the cluster-benchmark
methodology: read/write mixes, key-popularity skew, open- and closed-loop
clients.

Five named scenarios run on all five runtimes (broadcast RTS, point-to-point
RTS, central-server baseline, Ivy-style DSM baseline, adaptive unified
runtime).  The whole sweep is
deterministic under a fixed seed: the benchmark re-runs one cell and asserts
the two reports are identical.
"""

from __future__ import annotations

import pytest

from repro.metrics.latency import format_latency_row
from repro.metrics.report import format_table
from repro.workloads import RUNTIME_KINDS, WorkloadRunner, WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 8
CLIENTS_PER_NODE = 1
SEED = 42

#: The five named scenarios with the workload each is driven by.  A small
#: think time keeps closed-loop clients interleaving instead of running
#: back-to-back, which is what exposes coherence-protocol latency.
SCENARIOS = {
    "counter-farm": WorkloadSpec(name="counter-farm", num_keys=16,
                                 read_fraction=0.9, ops_per_client=40,
                                 think_time=0.0002),
    "kv-table": WorkloadSpec(name="kv-table", num_keys=32, read_fraction=0.8,
                             popularity="zipfian", zipf_s=1.1,
                             ops_per_client=40, think_time=0.0002),
    "fifo-queue": WorkloadSpec(name="fifo-queue", read_fraction=0.5,
                               ops_per_client=30, think_time=0.0002),
    "read-mostly-catalog": WorkloadSpec(name="read-mostly-catalog",
                                        num_keys=32, read_fraction=0.98,
                                        popularity="zipfian", zipf_s=1.2,
                                        ops_per_client=40, think_time=0.0002),
    "hot-spot": WorkloadSpec(name="hot-spot", num_keys=1, read_fraction=0.5,
                             client_model="open", arrival_rate=1500.0,
                             ops_per_client=30),
}


def run_cell(scenario: str, runtime: str, num_nodes=NUM_NODES,
             clients_per_node=CLIENTS_PER_NODE, ops_per_client=None,
             **options):
    spec = SCENARIOS[scenario]
    if ops_per_client is not None:
        spec = spec.with_overrides(ops_per_client=ops_per_client)
    runner = WorkloadRunner(scenario, workload=spec, runtime=runtime,
                            num_nodes=num_nodes,
                            clients_per_node=clients_per_node, seed=SEED,
                            **options)
    return runner.run()


@pytest.mark.benchmark(group="workloads")
def test_scenario_matrix_latency_and_throughput(benchmark):
    def experiment():
        return [run_cell(scenario, runtime) for scenario in SCENARIOS for runtime in RUNTIME_KINDS]

    reports = run_once(benchmark, experiment)

    # Every cell ran and issued its full request stream.
    assert len(reports) == len(SCENARIOS) * len(RUNTIME_KINDS)
    for report in reports:
        expected = report.num_clients * SCENARIOS[report.scenario].total_ops_per_client
        assert report.total_ops == expected
        assert report.throughput > 0
        overall = report.percentile_row()
        assert 0 <= overall["p50"] <= overall["p95"] <= overall["p99"]

    # Determinism: re-running one cell reproduces its report exactly.
    reference = next(r for r in reports if r.scenario == "kv-table"
                     and r.runtime == "broadcast-rts")
    repeat = run_cell("kv-table", "broadcast")
    assert repeat.fingerprint() == reference.fingerprint()
    assert repeat.request_latency == reference.request_latency

    # Replication should pay off on the read-mostly catalog: the broadcast
    # RTS serves reads locally, the central server pays an RPC per read.
    catalog = {r.runtime: r for r in reports if r.scenario == "read-mostly-catalog"}
    assert (catalog["broadcast-rts"].percentile_row("read")["p50"]
            < catalog["central-server-rts"].percentile_row("read")["p50"])

    rows = []
    for report in reports:
        p50, p95, p99, mean = format_latency_row(
            report.request_latency.get("overall", {"p50": 0, "p95": 0, "p99": 0,
                                                   "mean": 0}))
        rows.append([report.scenario, report.runtime,
                     str(report.total_ops), f"{report.throughput:.0f}",
                     p50, p95, p99, mean])
    benchmark.extra_info["cells"] = {f"{r.scenario}/{r.runtime}": r.fingerprint() for r in reports}
    benchmark.extra_info["records"] = len(reports)
    print()
    print(format_table(
        ["scenario", "runtime", "ops", "ops/s", "p50 ms", "p95 ms", "p99 ms",
         "mean ms"],
        rows,
        title=f"Workload scenarios x runtimes ({NUM_NODES} nodes, seed {SEED})"))

