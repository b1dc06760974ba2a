"""FIG3 — Arc Consistency Problem speedup (paper Fig. 3).

The paper reports significant but clearly sub-linear speedups for a
64-variable ACP instance on 2-16 processors, and attributes the gap to the
CPU overhead of handling incoming update messages for the fully replicated
domain/work objects.  The benchmark reproduces the curve and checks both the
shape (real speedup, but below TSP's efficiency) and the explanation (protocol
overhead grows with the processor count).
"""

from __future__ import annotations

import pytest

from repro.apps.acp import random_acp_problem, solve_sequential_ac3
from repro.apps.acp.orca_acp import run_acp_program
from repro.metrics.report import render_speedup_figure
from repro.metrics.speedup import SpeedupCurve

from conftest import SCALE, run_once

NUM_VARIABLES = 64 if SCALE == "paper" else 32
DOMAIN_SIZE = 16 if SCALE == "paper" else 12


@pytest.mark.benchmark(group="fig3-acp")
def test_fig3_acp_speedup_curve(benchmark, acp_processor_counts):
    problem = random_acp_problem(num_variables=NUM_VARIABLES, domain_size=DOMAIN_SIZE,
                                 constraints_per_variable=2.5, seed=21)
    sequential = solve_sequential_ac3(problem)

    def experiment():
        times = {}
        overheads = {}
        for procs in acp_processor_counts:
            result = run_acp_program(problem, num_procs=procs)
            assert result.value.domain_sizes == sequential.domain_sizes()
            times[procs] = result.elapsed
            overheads[procs] = result.overhead_time
        return times, overheads

    times, overheads = run_once(benchmark, experiment)
    curve = SpeedupCurve(times, base_procs=min(times))

    top = max(times)
    # Fig. 3 shape: worthwhile speedup ...
    assert curve.speedup(top) > 2.0
    # ... but clearly below perfect (the paper's 16-CPU point is ~8-10).
    assert curve.efficiency(top) < 0.95
    # The explanation: update-handling overhead rises with the machine count.
    assert overheads[top] > overheads[min(times)]

    benchmark.extra_info["num_variables"] = NUM_VARIABLES
    benchmark.extra_info["speedups"] = {str(p): round(s, 2) for p, s in curve.speedups().items()}
    benchmark.extra_info["protocol_overhead_seconds"] = {
        str(p): round(o, 4) for p, o in overheads.items()
    }
    print()
    print(render_speedup_figure(f"Fig. 3 — ACP speedup ({NUM_VARIABLES} variables)", curve, top))
