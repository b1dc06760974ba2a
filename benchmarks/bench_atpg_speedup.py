"""ATPG-SPEEDUP — test-pattern generation with static fault partitioning (paper §4.4).

"Using this basic algorithm, the program achieves good speedups (close to
linear) on circuits of reasonably large size."  Without the fault-simulation
optimisation the workers never communicate after start-up, so the speedup is
limited only by the static partition's load balance; the benchmark checks the
close-to-linear shape over 1-16 processors.
"""

from __future__ import annotations

import pytest

from repro.apps.atpg import random_circuit
from repro.apps.atpg.orca_atpg import run_atpg_program
from repro.metrics.report import render_speedup_figure
from repro.metrics.speedup import SpeedupCurve

from conftest import SCALE, run_once

NUM_GATES = 120 if SCALE == "paper" else 50
PROCESSOR_COUNTS = [1, 4, 8, 16]


@pytest.mark.benchmark(group="atpg-speedup")
def test_atpg_speedup_curve(benchmark):
    circuit = random_circuit(num_inputs=8, num_gates=NUM_GATES, num_outputs=5, seed=19)

    def experiment():
        times = {}
        coverages = set()
        for procs in PROCESSOR_COUNTS:
            result = run_atpg_program(circuit, num_procs=procs, use_fault_simulation=False)
            times[procs] = result.elapsed
            coverages.add(result.value.covered)
        return times, coverages

    times, coverages = run_once(benchmark, experiment)
    curve = SpeedupCurve(times, base_procs=1)

    # Same coverage everywhere (no fault simulation -> fully deterministic split).
    assert len(coverages) == 1
    # Close-to-linear shape: at least ~60% efficiency at the largest count and
    # strong speedup at 8 CPUs.
    assert curve.speedup(8) > 4.0
    assert curve.efficiency(max(times)) > 0.55

    benchmark.extra_info["num_gates"] = NUM_GATES
    benchmark.extra_info["speedups"] = {str(p): round(s, 2) for p, s in curve.speedups().items()}
    print()
    print(render_speedup_figure(
        f"§4.4 — ATPG speedup ({NUM_GATES} gates, plain PODEM)", curve, max(times)))
