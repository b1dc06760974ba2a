#!/usr/bin/env python3
"""Arc Consistency with shared domain/work/result objects (the paper's Fig. 3).

Builds a 64-variable instance, runs the Orca ACP program on 2..16 simulated
processors, verifies the result against sequential AC-3, and prints the
speedup curve plus the protocol overhead that explains why ACP scales less
well than TSP (every domain update is broadcast to every machine).

Run with::

    python examples/acp_demo.py [num_variables]
"""

from __future__ import annotations

import sys

from repro.apps.acp import random_acp_problem, solve_sequential_ac3
from repro.apps.acp.orca_acp import run_acp_program
from repro.metrics.report import render_speedup_figure
from repro.metrics.speedup import SpeedupCurve


def main() -> None:
    num_variables = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    problem = random_acp_problem(num_variables=num_variables, domain_size=16, seed=21)
    print(f"ACP demo: {num_variables} variables, {len(problem.constraints)} constraints")

    sequential = solve_sequential_ac3(problem)
    print(f"  sequential: consistent={sequential.consistent}, "
          f"domain sizes sum={sum(sequential.domain_sizes())}, "
          f"revisions={sequential.revisions}")

    times = {}
    for procs in (2, 4, 8, 12, 16):
        result = run_acp_program(problem, num_procs=procs)
        times[procs] = result.elapsed
        assert result.value.domain_sizes == sequential.domain_sizes()
        print(f"  {procs:2d} CPUs: elapsed {result.elapsed:8.3f}s  "
              f"broadcasts {result.rts['broadcast_writes']:5d}  "
              f"protocol CPU overhead {result.overhead_time:6.3f}s")

    curve = SpeedupCurve(times, base_procs=2)
    print()
    print(render_speedup_figure(
        "Fig. 3 style — Arc Consistency speedup (64 variables)", curve, 16))
    print("\nNote how the protocol overhead column grows with the processor count:")
    print("replicating the domain/work objects means every update interrupts every CPU,")
    print("which is exactly why the paper's ACP speedups trail its TSP speedups.")


if __name__ == "__main__":
    main()
