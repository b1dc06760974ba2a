"""KERNEL SCALING — simulator-core throughput at 8/16/64 nodes.

Every other benchmark measures the *protocols*; this one measures the
*simulator* that carries them.  A broadcast-heavy write workload (every
request crosses the sequencer and fans out to all members) is swept over
8, 16 and 64 nodes, the scale at which the per-member delivery fan-out and
the event-queue constant factors dominate wall-clock time.  The paper's
broadcast-vs-point-to-point tradeoff turns on exactly these cluster sizes,
so CI must be able to afford them.

Its reduced cells are pinned in ``benchmarks/pins.py``, which also holds
each one to its wall-clock budget (``baselines/wallclock_budget.json``).
"""

from __future__ import annotations

import time

import pytest

from repro.config import ClusterConfig
from repro.metrics.report import format_table
from repro.workloads import WorkloadRunner, WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

SEED = 42
NODE_COUNTS = [8, 16, 64]

#: Write-only counter traffic: every request is a sequenced broadcast that
#: fans out to all members, so the cost per op grows with the cluster and
#: the simulator core (event queue, delivery path, process handshake) is
#: what the wall clock measures.
SPEC = WorkloadSpec(name="counter-farm-writes", num_keys=32,
                    read_fraction=0.0, ops_per_client=20,
                    think_time=0.0005)
CLIENTS_PER_NODE = 2


def run_cell(num_nodes: int, clients_per_node: int, ops_per_client: int):
    """One timed cell; returns ``(report, wall_seconds)``."""
    spec = SPEC.with_overrides(ops_per_client=ops_per_client)
    started = time.perf_counter()
    report = WorkloadRunner(
        "counter-farm", workload=spec, runtime="broadcast",
        num_nodes=num_nodes, clients_per_node=clients_per_node, seed=SEED,
        config=ClusterConfig(num_nodes=num_nodes, seed=SEED)).run()
    return report, time.perf_counter() - started


@pytest.mark.benchmark(group="kernel-scaling")
def test_kernel_scaling_sweep(benchmark):
    def experiment():
        return [(nodes,) + run_cell(nodes, CLIENTS_PER_NODE,
                                    SPEC.ops_per_client)
                for nodes in NODE_COUNTS]

    cells = run_once(benchmark, experiment)

    rows = []
    for nodes, report, wall in cells:
        expected = nodes * CLIENTS_PER_NODE * SPEC.ops_per_client
        assert report.total_ops == expected
        assert report.throughput > 0
        rows.append([str(nodes), str(report.total_ops),
                     f"{report.throughput:.0f}",
                     f"{report.elapsed * 1e3:.1f}", f"{wall:.2f}"])

    # Determinism: the largest cell replays fingerprint-for-fingerprint.
    largest, largest_report, _ = cells[-1]
    repeat, _ = run_cell(largest, CLIENTS_PER_NODE, SPEC.ops_per_client)
    assert repeat.fingerprint() == largest_report.fingerprint()

    benchmark.extra_info["cells"] = {str(nodes): report.fingerprint() for nodes, report, _ in cells}
    benchmark.extra_info["wall_seconds"] = {str(nodes): wall for nodes, _, wall in cells}
    print()
    print(format_table(
        ["nodes", "ops", "ops/s (virtual)", "virtual ms", "wall s"],
        rows,
        title=f"Kernel scaling, broadcast write storm (seed {SEED})"))

