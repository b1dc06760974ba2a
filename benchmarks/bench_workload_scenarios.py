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

Run as a script with ``--smoke`` to emit a reduced, canonical-JSON report for
the CI determinism regression (two runs must be byte-identical)::

    PYTHONPATH=src python benchmarks/bench_workload_scenarios.py --smoke --out smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
try:  # pragma: no cover - script-mode bootstrap
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, _SRC)

import pytest

from repro.harness.sweeps import workload_run_collection
from repro.metrics.latency import format_latency_row
from repro.metrics.report import format_table
from repro.workloads import RUNTIME_KINDS, WorkloadRunner, WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - script mode does not need pytest glue
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


def run_cell(scenario: str, runtime: str):
    runner = WorkloadRunner(scenario, workload=SCENARIOS[scenario],
                            runtime=runtime, num_nodes=NUM_NODES,
                            clients_per_node=CLIENTS_PER_NODE, seed=SEED)
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

    collection = workload_run_collection(reports)
    rows = []
    for report in reports:
        p50, p95, p99, mean = format_latency_row(
            report.request_latency.get("overall", {"p50": 0, "p95": 0, "p99": 0,
                                                   "mean": 0}))
        rows.append([report.scenario, report.runtime,
                     str(report.total_ops), f"{report.throughput:.0f}",
                     p50, p95, p99, mean])
    benchmark.extra_info["cells"] = {f"{r.scenario}/{r.runtime}": r.fingerprint() for r in reports}
    benchmark.extra_info["records"] = len(collection)
    print()
    print(format_table(
        ["scenario", "runtime", "ops", "ops/s", "p50 ms", "p95 ms", "p99 ms",
         "mean ms"],
        rows,
        title=f"Workload scenarios x runtimes ({NUM_NODES} nodes, seed {SEED})"))


# ---------------------------------------------------------------------- #
# Script mode: the CI determinism smoke report
# ---------------------------------------------------------------------- #

#: Per-client request count of the reduced smoke matrix.
SMOKE_OPS = 12
SMOKE_NODES = 4


def smoke_reports():
    """A reduced scenario x runtime matrix, plus sharded/batched cells.

    Small enough for CI to run twice, but covering every runtime kind and
    both new broadcast-RTS scaling knobs, so any non-determinism anywhere in
    the simulation shows up as a byte diff between the two reports.
    """
    reports = []
    for scenario, spec in SCENARIOS.items():
        smoke_spec = spec.with_overrides(ops_per_client=SMOKE_OPS)
        for runtime in RUNTIME_KINDS:
            reports.append(WorkloadRunner(
                scenario, workload=smoke_spec, runtime=runtime,
                num_nodes=SMOKE_NODES, clients_per_node=CLIENTS_PER_NODE,
                seed=SEED).run())
    sharded_spec = SCENARIOS["counter-farm"].with_overrides(ops_per_client=SMOKE_OPS)
    reports.append(WorkloadRunner(
        "counter-farm", workload=sharded_spec, runtime="broadcast",
        num_nodes=SMOKE_NODES, clients_per_node=2, seed=SEED,
        num_shards=2).run())
    batched_spec = SCENARIOS["fifo-queue"].with_overrides(ops_per_client=SMOKE_OPS)
    reports.append(WorkloadRunner(
        "fifo-queue", workload=batched_spec, runtime="broadcast",
        num_nodes=SMOKE_NODES, clients_per_node=2, seed=SEED,
        num_shards=2, batching={"max_batch": 8, "flush_delay": 0.0005}).run())
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Workload scenario benchmark (script mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced matrix and emit canonical JSON")
    parser.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("script mode currently only supports --smoke")
    reports = smoke_reports()
    payload = {
        "seed": SEED,
        "nodes": SMOKE_NODES,
        "ops_per_client": SMOKE_OPS,
        "cells": [report.fingerprint() for report in reports],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
