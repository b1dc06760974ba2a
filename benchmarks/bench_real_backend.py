"""REAL BACKEND — the protocol over real sockets, timed on a wall clock.

Every other benchmark in this directory measures *virtual* time inside the
deterministic simulator.  This one runs the same scenarios through
:mod:`repro.net` — one OS process per node, asyncio UDP unicast on loopback,
the full ordering/primary/heartbeat protocol — and reports real wall-clock
throughput next to the simulator's virtual-time numbers for the identical
workload (same seed, same per-client request streams).

Every real cell is oracle-checked before its number is reported: the
converged state must match the deterministic stream replay (and the
simulator's facts), so a throughput figure can never come from a diverged
run.
"""

from __future__ import annotations

import pytest

from repro.metrics.report import format_table
from repro.net.runner import run_real_workload
from repro.net.runtime import RealTimings
from repro.workloads.runner import WorkloadRunner
from repro.workloads.scenarios import ScenarioRegistry

from conftest import run_once

NUM_NODES = 3
NUM_SHARDS = 2
SEED = 42
OPS_PER_CLIENT = 40
SCENARIOS = ("counter-farm", "fifo-queue", "hotspot-shift")

#: Loopback-friendly protocol timers (fast retry/sync, tolerant detector).
TIMINGS = RealTimings(heartbeat_interval=0.05, dead_after=0.5,
                      retry_interval=0.05, sync_interval=0.05,
                      gap_delay=0.03, submit_deadline=60.0)


def bench_spec(scenario):
    return ScenarioRegistry.get(scenario).default_spec().with_overrides(
        ops_per_client=OPS_PER_CLIENT)


def run_cell(scenario, seed=SEED):
    """One scenario on both backends; returns the comparison row."""
    spec = bench_spec(scenario)
    sim = WorkloadRunner(scenario, workload=spec, runtime="broadcast",
                         num_nodes=NUM_NODES, clients_per_node=1, seed=seed,
                         num_shards=NUM_SHARDS).run()
    real = run_real_workload(scenario=scenario, workload=spec,
                             num_nodes=NUM_NODES, num_shards=NUM_SHARDS,
                             seed=seed, timings=TIMINGS)
    assert real.total_ops == sim.total_ops, (real.total_ops, sim.total_ops)
    return {
        "scenario": scenario,
        "seed": seed,
        "ops": real.total_ops,
        "reads": real.reads,
        "writes": real.writes,
        "converged": True,  # run_real_workload raises otherwise
        "facts": dict(sorted(real.scenario_facts.items())),
        "real": {
            "elapsed": round(real.elapsed, 6),
            "ops_per_s": round(real.throughput, 1),
            "datagrams": real.network.get("datagrams_sent", 0),
        },
        "sim": {
            "virtual_elapsed": round(sim.elapsed, 9),
            "ops_per_virtual_s": round(sim.throughput, 1),
            "messages": sim.network.get("messages"),
        },
    }


def comparison_cells(scenarios=SCENARIOS):
    return [run_cell(scenario) for scenario in scenarios]


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


def _print_cells(cells):
    rows = []
    for cell in cells:
        rows.append([
            cell["scenario"],
            str(cell["ops"]),
            f"{cell['real']['elapsed'] * 1e3:.1f}",
            f"{cell['real']['ops_per_s']:.0f}",
            f"{cell['sim']['ops_per_virtual_s']:.0f}",
            str(cell["real"]["datagrams"]),
            str(cell["converged"]),
        ])
    print()
    print(format_table(
        ["scenario", "ops", "real ms", "real ops/s", "sim ops/vs",
         "datagrams", "converged"],
        rows,
        title=f"Real-socket backend vs simulator ({NUM_NODES} nodes, "
              f"{NUM_SHARDS} shards, seed {SEED})"))


@pytest.mark.benchmark(group="real-backend")
def test_real_backend_throughput_with_oracle_check(benchmark):
    cells = run_once(benchmark, comparison_cells)

    for cell in cells:
        # run_real_workload already asserted convergence; the numbers on
        # top of it must be sane.
        assert cell["converged"]
        assert cell["real"]["ops_per_s"] > 0
        assert cell["real"]["datagrams"] > 0
        assert cell["ops"] == cell["reads"] + cell["writes"]

    benchmark.extra_info["cells"] = cells
    _print_cells(cells)

