"""Pins: every virtual-time cell, held byte for byte to its committed line.

A *cell* is one seeded simulator run at a reduced size, named
``family/cell``; its *pin* is the line
``json.dumps({"cell": ..., "fingerprint": ...}, sort_keys=True)`` in
``baselines/<family>.jsonl``.  Virtual time and named RNG streams make every
fingerprint reproducible on any machine, so a pin that moves means the
simulated behaviour changed.  ``tests/test_pins.py`` checks every pin
in-process; this script checks them in a fresh process and also holds the
kernel cells to their wall-clock budget (``baselines/wallclock_budget.json``)::

    PYTHONPATH=src python benchmarks/pins.py           # prints "moved: family/cell"
    PYTHONPATH=src python benchmarks/pins.py --write   # regenerate every pin
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache, partial
from pathlib import Path

import bench_adaptive_migration as adaptive
import bench_elasticity as elasticity
import bench_gateway as gateway
import bench_kernel_scaling as kernel
import bench_primary_recovery as recovery
import bench_rebalancing as rebalance
import bench_transactions as transactions
import bench_workload_scenarios as workloads
from repro.rts.sharding import HashPlacement
from repro.workloads import RUNTIME_KINDS, ScenarioRegistry, WorkloadRunner

BASELINES = Path(__file__).resolve().parent / "baselines"
BUDGET = BASELINES / "wallclock_budget.json"


def _fingerprint(run, *args, **kwargs):
    """Run one simulation and return its report's fingerprint."""
    return run(*args, **kwargs).fingerprint()


def _workload_cells():
    """Every workload scenario on every runtime, plus a sharded and a batched cell."""
    small = dict(num_nodes=4, ops_per_client=12)
    cells = {
        f"{scenario}/{runtime}": partial(
            _fingerprint, workloads.run_cell, scenario, runtime, **small
        )
        for scenario in workloads.SCENARIOS
        for runtime in RUNTIME_KINDS
    }
    sharded = dict(small, clients_per_node=2, num_shards=2)
    cells["counter-farm/broadcast/shards=2"] = partial(
        _fingerprint, workloads.run_cell, "counter-farm", "broadcast", **sharded
    )
    cells["fifo-queue/broadcast/batched"] = partial(
        _fingerprint,
        workloads.run_cell,
        "fifo-queue",
        "broadcast",
        batching={"max_batch": 8, "flush_delay": 0.0005},
        **sharded,
    )
    return cells


def _adaptive_cells():
    """Adaptive migration on both scenario shapes and the mixed-policy kind."""
    small = dict(num_nodes=4, clients_per_node=2)
    specs = {
        "counter-farm": adaptive.MIXED_SPEC.with_overrides(ops_per_client=24),
        "fifo-queue": adaptive.FIFO_SPEC.with_overrides(ops_per_client=24),
        "policy-mix": None,
    }
    cells = {
        scenario: partial(_fingerprint, adaptive.run_cell, scenario, "adaptive", spec, **small)
        for scenario, spec in specs.items()
    }
    cells["election-migration"] = partial(
        adaptive.run_election_migration, writers_per_node=1, ops_per_writer=8
    )
    return cells


def _rebalance_cells():
    """Object moves, the flow-control hold path and live group growth."""
    spec = rebalance.SKEW_SPEC.with_overrides(num_keys=32, ops_per_client=40)
    moves = {"interval": 0.004, "imbalance": 1.4, "min_writes": 32, "max_moves": 3}
    small = dict(num_nodes=4, clients_per_node=3)

    def run(**options):
        placement = HashPlacement(rebalance.NUM_SHARDS, by="name")
        return rebalance.run_cell(spec, placement, **options, **small).fingerprint()

    return {
        "static": run,
        "rebalanced": partial(run, rebalance=moves),
        "flow-control": partial(
            run,
            rebalance=moves,
            batching=dict(rebalance.BACKPRESSURE_BATCHING),
            cost_model=rebalance.SLOW_COST_MODEL,
        ),
        "live-growth": partial(
            rebalance.run_live_growth,
            writers_per_node=1,
            ops_per_writer=20,
            num_nodes=4,
            grow_to=3,
        ),
    }


def _kernel_cells():
    """The broadcast write storm at 8, 16 and 64 nodes, one client each."""
    return {
        f"{nodes}_nodes": lambda nodes=nodes: kernel.run_cell(nodes, 1, 8)[0].fingerprint()
        for nodes in kernel.NODE_COUNTS
    }


def _scenario_cells():
    """Every scenario kind on every runtime kind, on 5 nodes under seed 7.

    Broadcast-capable runtimes run with one and with two shards, and the
    kinds that declare tenants also run through the gateway.
    """
    cells = {}
    for kind in ScenarioRegistry.names():
        for runtime in RUNTIME_KINDS:
            for shards in (1, 2) if runtime in ("broadcast", "adaptive") else (1,):
                cells[f"{kind}/{runtime}/shards={shards}"] = partial(
                    _fingerprint, _run_scenario, kind, runtime=runtime, num_shards=shards
                )
        if ScenarioRegistry.get(kind).default_spec().tenants:
            cells[f"{kind}/broadcast/gateway"] = partial(
                _fingerprint, _run_scenario, kind, runtime="broadcast", gateway=True
            )
    return cells


def _run_scenario(kind, **options):
    return WorkloadRunner(kind, num_nodes=5, seed=7, **options).run()


#: family -> {cell: zero-argument runner returning the cell's fingerprint}.
FAMILIES = {
    "workloads": _workload_cells(),
    "adaptive": _adaptive_cells(),
    "rebalance": _rebalance_cells(),
    "recovery": recovery.recovery_cells(num_nodes=5, writers_per_node=1, ops_per_writer=40),
    "elasticity": elasticity.elasticity_cells(num_nodes=5, clients_per_node=1, ops_per_client=40),
    "transactions": transactions.transaction_cells(num_nodes=5, rounds=12),
    "gateway": gateway.gateway_cells(
        num_nodes=4, burst_ops=40, scale_sessions=640, scale_nodes=4
    ),
    "kernel_scaling": _kernel_cells(),
    "scenarios": _scenario_cells(),
}


def line(cell, fingerprint):
    """The pinned line for one cell."""
    return json.dumps({"cell": cell, "fingerprint": fingerprint}, sort_keys=True)


@lru_cache(maxsize=None)
def pinned(family):
    """``{cell: line}`` as committed in ``baselines/<family>.jsonl``."""
    with (BASELINES / f"{family}.jsonl").open(encoding="utf-8") as fh:
        return {json.loads(text)["cell"]: text.rstrip("\n") for text in fh}


def check_budget(budget, timings):
    """Return problems for budgeted cells that are missing or over budget."""
    problems = []
    for cell, limit in sorted(budget.items()):
        measured = timings.get(cell)
        if not isinstance(measured, (int, float)):
            problems.append(f"{cell}: no measured timing (budget {limit}s)")
        elif float(measured) > float(limit):
            problems.append(f"{cell}: {float(measured):.3f}s exceeds budget {float(limit):.3f}s")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite baselines/*.jsonl from this run"
    )
    args = parser.parse_args(argv)
    moved = 0
    timings = {}
    for family, cells in FAMILIES.items():
        lines = []
        for cell, run in cells.items():
            started = time.perf_counter()
            lines.append(line(cell, run()))
            timings[f"{family}/{cell}"] = time.perf_counter() - started
            if not args.write and lines[-1] != pinned(family).get(cell):
                print(f"moved: {family}/{cell}")
                moved += 1
        if args.write:
            (BASELINES / f"{family}.jsonl").write_text("".join(f"{text}\n" for text in lines))
    problems = check_budget(json.loads(BUDGET.read_text()), timings)
    for problem in problems:
        print(f"over budget: {problem}")
    print(
        f"{len(timings)} cells in {len(FAMILIES)} families, {moved} moved, "
        f"{len(problems)} over budget, {sum(timings.values()):.1f} s"
    )
    return 1 if moved or problems else 0


if __name__ == "__main__":
    sys.exit(main())
