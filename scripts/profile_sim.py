"""Profile the simulator hot path over a parameterised benchmark cell.

Runs one broadcast-heavy workload cell (the same shape as
``benchmarks/bench_kernel_scaling.py``) under ``cProfile`` and prints a
top-N table by cumulative and by internal time, so "make the kernel faster"
always starts from a measurement instead of a hunch.  CI can archive the
output as an artifact to track where the time goes across commits.

Simulated processes run on the simulator's carrier threads, so the profiler
is installed in every thread the run starts (``threading.setprofile``) and
the per-thread statistics are merged.  Time a thread spends parked on a
hand-off lock is nobody's work: those rows are left out of the tables (the
*cumulative* time of a function that parks, ``hold`` or ``run``, still spans
the wait).

Usage::

    PYTHONPATH=src python scripts/profile_sim.py
    PYTHONPATH=src python scripts/profile_sim.py --nodes 64 --ops 20 --top 40
    PYTHONPATH=src python scripts/profile_sim.py --runtime p2p --read-fraction 0.7
    PYTHONPATH=src python scripts/profile_sim.py --out profile.txt
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import threading
import time

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script-mode bootstrap
    sys.path.insert(0, _SRC)

from repro.config import ClusterConfig, CostModel
from repro.workloads import WorkloadRunner, WorkloadSpec


def build_cell(args: argparse.Namespace):
    """The profiled workload: sequenced write broadcasts, loaded sequencer."""
    cost_model = CostModel().with_overrides(cpu={"sequencing_cost": args.sequencing_cost})
    spec = WorkloadSpec(
        name="counter-farm-writes",
        num_keys=32,
        read_fraction=args.read_fraction,
        ops_per_client=args.ops,
        think_time=args.think_time,
    )

    def cell():
        runner = WorkloadRunner(
            "counter-farm",
            workload=spec,
            runtime=args.runtime,
            num_nodes=args.nodes,
            clients_per_node=args.clients,
            seed=args.seed,
            num_shards=args.shards,
            config=ClusterConfig(num_nodes=args.nodes, seed=args.seed, cost_model=cost_model),
        )
        return runner.run()

    return cell


def profile_all_threads(fn):
    """Run ``fn()`` under cProfile in this thread and in every thread it starts.

    Returns ``(result, wall seconds, merged pstats.Stats)`` with the
    lock-wait rows removed.
    """
    profilers = [cProfile.Profile()]

    def profile_new_thread(*_event):
        # Runs once, on the thread's first profile event: enabling a C
        # profiler replaces this hook for that thread.
        profiler = cProfile.Profile()
        try:
            profiler.enable()
        except ValueError:  # 3.12+: the first profiler already sees every thread
            return
        profilers.append(profiler)

    threading.setprofile(profile_new_thread)
    started = time.perf_counter()
    profilers[0].enable()
    try:
        result = fn()
    finally:
        profilers[0].disable()
        threading.setprofile(None)
    wall = time.perf_counter() - started
    stats = pstats.Stats(*profilers)
    for func in [f for f in stats.stats if f[2] == "<method 'acquire' of '_thread.lock' objects>"]:
        stats.total_tt -= stats.stats.pop(func)[2]
    return result, wall, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the discrete-event hot path over one bench cell"
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--clients", type=int, default=6, help="closed-loop clients per node")
    parser.add_argument("--ops", type=int, default=40, help="ops per client")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runtime", default="broadcast", help="broadcast, p2p, central or ivy")
    parser.add_argument("--read-fraction", type=float, default=0.0)
    parser.add_argument("--think-time", type=float, default=0.0005)
    parser.add_argument(
        "--sequencing-cost",
        type=float,
        default=2.0e-4,
        help="per-message sequencer service time (seconds)",
    )
    parser.add_argument("--top", type=int, default=25, help="rows per ranking table")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    report, wall, stats = profile_all_threads(build_cell(args))

    buf = io.StringIO()
    buf.write(
        f"profile_sim: {args.nodes} nodes x {args.clients} clients x "
        f"{args.ops} ops (runtime={args.runtime}, read_fraction={args.read_fraction}, "
        f"shards={args.shards}, seed={args.seed})\n"
        f"wall={wall:.3f}s ops={report.total_ops} "
        f"virtual_throughput={report.throughput:.1f} ops/s\n\n"
    )
    stats.stream = buf
    buf.write(f"=== top {args.top} by cumulative time ===\n")
    stats.sort_stats("cumulative").print_stats(args.top)
    buf.write(f"\n=== top {args.top} by internal time ===\n")
    stats.sort_stats("tottime").print_stats(args.top)

    text = buf.getvalue()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
