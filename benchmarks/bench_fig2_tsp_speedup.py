"""FIG2 — Traveling Salesman Problem speedup (paper Fig. 2).

The paper measures near-linear speedup for a 14-city branch-and-bound TSP on
1-16 processors, because the global bound object has an extremely high
read/write ratio and is replicated on every machine.  This benchmark runs the
same Orca program over the processor counts of Fig. 2 and records the speedup
curve; the assertion checks the *shape*: high parallel efficiency at 16 CPUs
and a bound object that is read orders of magnitude more often than written.
"""

from __future__ import annotations

import pytest

from repro.apps.tsp import random_instance
from repro.apps.tsp.orca_tsp import run_tsp_program
from repro.metrics.report import render_speedup_figure
from repro.metrics.speedup import SpeedupCurve

from conftest import SCALE, run_once

NUM_CITIES = 14 if SCALE == "paper" else 10
JOB_DEPTH = 3 if SCALE == "paper" else 2


@pytest.mark.benchmark(group="fig2-tsp")
def test_fig2_tsp_speedup_curve(benchmark, tsp_processor_counts):
    instance = random_instance(NUM_CITIES, seed=14)

    def experiment():
        times = {}
        answers = set()
        last = None
        for procs in tsp_processor_counts:
            result = run_tsp_program(instance, num_procs=procs, job_depth=JOB_DEPTH)
            times[procs] = result.elapsed
            answers.add(result.value.best_length)
            last = result
        return times, answers, last

    times, answers, last = run_once(benchmark, experiment)
    curve = SpeedupCurve(times, base_procs=1)

    # Every processor count finds the same optimal tour length.
    assert len(answers) == 1
    # Fig. 2 shape: close to linear speedup; at 16 CPUs the paper is ~90%+
    # efficient, we require at least 60% to allow for the smaller instance.
    assert curve.speedup(8) > 5.0
    assert curve.efficiency(max(times)) > 0.6
    # The replicated bound is read vastly more often than it is written.
    reads = last.rts["local_reads"]
    writes = last.rts["broadcast_writes"]
    assert reads > 20 * writes

    benchmark.extra_info["num_cities"] = NUM_CITIES
    benchmark.extra_info["speedups"] = {str(p): round(s, 2) for p, s in curve.speedups().items()}
    benchmark.extra_info["read_write_ratio"] = round(reads / max(1, writes), 1)
    print()
    print(render_speedup_figure(f"Fig. 2 — TSP speedup ({NUM_CITIES} cities)", curve, max(times)))
