#!/usr/bin/env python3
"""The paper's favourite example: branch-and-bound TSP with a replicated bound.

Runs the Orca TSP program (job queue + shared global bound, replicated
workers) on 1, 2, 4, 8 and 16 simulated processors and prints the speedup
curve in the style of the paper's Fig. 2, plus the read/write ratio of the
bound object that makes replication pay off.

Run with::

    python examples/tsp_demo.py [num_cities]
"""

from __future__ import annotations

import sys

from repro.apps.tsp import random_instance, solve_sequential
from repro.apps.tsp.orca_tsp import run_tsp_program
from repro.metrics.report import render_speedup_figure
from repro.metrics.speedup import SpeedupCurve


def main() -> None:
    num_cities = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    instance = random_instance(num_cities, seed=14)
    print(f"TSP demo: {num_cities} cities, branch-and-bound with a shared bound object")

    sequential = solve_sequential(instance)
    print(f"  sequential optimum      : {sequential.best_length}")
    print(f"  sequential search nodes : {sequential.nodes_expanded}")

    times = {}
    last = None
    for procs in (1, 2, 4, 8, 16):
        result = run_tsp_program(instance, num_procs=procs)
        times[procs] = result.elapsed
        last = result
        best, jobs, nodes = result.value
        assert best == sequential.best_length, "parallel result must match sequential"
        print(f"  {procs:2d} CPUs: elapsed {result.elapsed:8.3f}s  "
              f"(jobs {jobs}, nodes {nodes}, broadcasts {result.rts['broadcast_writes']})")

    curve = SpeedupCurve(times, base_procs=1)
    print()
    print(render_speedup_figure(
        "Fig. 2 style — TSP speedup (shared bound, replicated workers)", curve, 16))
    reads = last.rts["local_reads"]
    writes = last.rts["broadcast_writes"]
    print(f"\nBound/queue objects on 16 CPUs: {reads} local reads, "
          f"{writes} broadcast writes (read/write ratio ~{reads / max(1, writes):.0f}:1)")


if __name__ == "__main__":
    main()
