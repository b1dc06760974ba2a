"""Profile the simulator hot path under one of the benchmark's own workloads.

Runs one repeat of a workload named in ``BENCHMARK.json`` - built from
``benchmarks/perf/workloads.py`` exactly as the benchmark's worker builds it -
under ``cProfile`` and prints a top-N table by cumulative and by internal
time, so "make the kernel faster" always starts from a measurement of the
thing that is gated instead of a cell that resembles it.  CI can archive the
output as an artifact to track where the time goes across commits.

Simulated processes run on the simulator's carrier threads, so the profiler
is installed in every thread the run starts (``threading.setprofile``) and
the per-thread statistics are merged.  Time a thread spends parked on a
hand-off lock is nobody's work: those ``acquire`` rows are left out of the
tables (the *cumulative* time of a function that parks, ``hold`` or ``run``,
still spans the wait).  Their count is printed in the header beside the count
of lock ``release`` calls: every thread hand-off is one release, so that is
the number to watch when the hand-off path changes.  What a hand-off costs the
host is printed under it: OS context switches per hand-off, voluntary and
involuntary (``getrusage``), counted over one pass of the same repeat run
*before* the profiled one with no profiler installed.  One per hand-off is the
floor; run under ``taskset -c N`` to read what the pinned benchmark pays.
Under that comes a census of the events a third, also unprofiled, pass
scheduled, by callback: how many, what share, how many for the instant they
were scheduled in (a wake that ``SimProcess.wake`` parks is no event and has no
row).  A workload that transacts also gets the counts the delivery side of
``txn/`` is judged by: member deliveries of ``txn-*`` records, participant
handler calls (deliveries plus replays), replayed queue items and
``ObjectSpec.clone`` calls.

Usage::

    PYTHONPATH=src python scripts/profile_sim.py --workload primary-rpc-mix
    PYTHONPATH=src python scripts/profile_sim.py --workload gateway-fleet --top 40
    PYTHONPATH=src python scripts/profile_sim.py --workload bcast-write-storm --scale 0.25
    PYTHONPATH=src python scripts/profile_sim.py --workload txn-bank-transfer --out profile.txt
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import resource
import sys
import threading
import time

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - script-mode bootstrap
    sys.path.insert(0, os.path.join(_ROOT, "src"))
# The benchmark's workload table, imported read-only.
sys.path.insert(0, os.path.join(_ROOT, "benchmarks", "perf"))

from workloads import WORKLOADS  # noqa: E402

from repro.rts.object_model import ObjectSpec  # noqa: E402
from repro.sim.events import EventQueue  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.txn import TransactionLayer, TxnParticipant  # noqa: E402
from repro.workloads import WorkloadRunner  # noqa: E402

SIM_WORKLOADS = sorted(name for name, workload in WORKLOADS.items() if workload.backend == "sim")

#: The rows of a raw lock's two methods in a ``pstats`` table.
_ACQUIRE, _RELEASE = (
    ("~", 0, f"<method '{method}' of '_thread.lock' objects>") for method in ("acquire", "release")
)


def build_cell(name: str, seed: int, scale: float):
    """One repeat (``scale`` of one) of the benchmark workload ``name``, as the worker runs it."""
    workload = WORKLOADS[name]
    spec = workload.sized(scale)

    def cell():
        return WorkloadRunner(
            workload.scenario,
            workload=spec,
            runtime=workload.runtime,
            num_nodes=workload.num_nodes,
            clients_per_node=workload.clients_per_node,
            seed=seed,
            num_shards=workload.num_shards,
            gateway=workload.gateway,
        ).run()

    return cell


def profile_all_threads(fn):
    """Run ``fn()`` under cProfile in this thread and in every thread it starts.

    Returns ``(result, wall seconds, merged pstats.Stats, lock acquires, lock
    releases)``: the stats with the lock-wait rows removed, and how many calls
    those rows and the ``release`` row stand for.
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
    _cc, acquires, parked, _ct, _callers = stats.stats.pop(_ACQUIRE, (0, 0, 0.0, 0.0, {}))
    stats.total_tt -= parked
    releases = stats.stats[_RELEASE][1] if _RELEASE in stats.stats else 0
    return result, wall, stats, acquires, releases


def context_switches(fn):
    """Run ``fn()``; returns the (voluntary, involuntary) OS context switches it took."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    fn()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_nvcsw - before.ru_nvcsw, after.ru_nivcsw - before.ru_nivcsw


def event_census(fn) -> dict:
    """Run ``fn()``; returns ``{callback qualname: [events scheduled, of them zero-delay]}``."""
    census = {}
    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at

    def note(callback, zero_delay):
        name = getattr(callback, "__qualname__", None) or type(callback).__name__
        row = census.setdefault(name, [0, 0])
        row[0] += 1
        row[1] += zero_delay

    def counted_schedule(sim, delay, callback, *args, **kwargs):
        note(callback, delay == 0)
        return schedule(sim, delay, callback, *args, **kwargs)

    def counted_schedule_at(sim, time, callback, *args, **kwargs):
        note(callback, time == sim.now)
        return schedule_at(sim, time, callback, *args, **kwargs)

    Simulator.schedule, Simulator.schedule_at = counted_schedule, counted_schedule_at
    try:
        fn()
    finally:
        Simulator.schedule, Simulator.schedule_at = schedule, schedule_at
    return census


def census_table(census: dict, ops: int) -> str:
    total = sum(count for count, _zero in census.values())
    lines = [
        f"events by callback, unprofiled pass: {total} scheduled "
        f"({total / max(1, ops):.2f} per op)",
        f"{'count':>9} {'share':>6} {'zero-delay':>10}  callback",
    ]
    for name, (count, zero) in sorted(census.items(), key=lambda row: (-row[1][0], row[0])):
        lines.append(f"{count:>9} {count / total:>6.1%} {zero:>10}  {name}")
    return "\n".join(lines) + "\n"


def stat_keys(functions) -> set:
    """The ``pstats`` row keys of the Python functions among ``functions``."""
    codes = (getattr(function, "__code__", None) for function in functions)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes if code}


def share_of_self_time(stats: pstats.Stats, cls: type) -> float:
    """Share of the profiled self time spent in the methods of ``cls``, plus in
    the built-ins (``heappush``, ``heappop``...) called from them."""
    own = stat_keys(getattr(member, "fget", member) for member in vars(cls).values())
    spent = sum(row[2] for func, row in stats.stats.items() if func in own)
    for func, (_cc, _nc, _tt, _ct, callers) in stats.stats.items():
        if func[0] == "~":  # a built-in: its time, as called from those methods
            spent += sum(row[2] for caller, row in callers.items() if caller in own)
    return spent / stats.total_tt if stats.total_tt else 0.0


def calls_of(stats: pstats.Stats, *functions) -> int:
    """Profiled calls of the given plain functions or methods, summed."""
    own = stat_keys(functions)
    return sum(row[1] for func, row in stats.stats.items() if func in own)


def count_replayed_items(counter: list):
    """Have every ``TxnParticipant._replay`` add its queue's length to ``counter[0]``."""
    replay = TxnParticipant._replay

    def counted(self, node_id, locks, obj_id, items):
        counter[0] += len(items)
        return replay(self, node_id, locks, obj_id, items)

    TxnParticipant._replay = counted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the discrete-event hot path over one benchmark workload"
    )
    parser.add_argument(
        "--workload",
        default="primary-rpc-mix",
        choices=SIM_WORKLOADS,
        help="a simulator workload of BENCHMARK.json (benchmarks/perf/workloads.py)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="fraction of one benchmark repeat to run"
    )
    parser.add_argument("--top", type=int, default=25, help="rows per ranking table")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    cell = build_cell(args.workload, args.seed, args.scale)
    voluntary, involuntary = context_switches(cell)
    census = event_census(cell)
    replayed = [0]
    count_replayed_items(replayed)
    report, wall, stats, acquires, releases = profile_all_threads(cell)
    deliveries = calls_of(stats, TransactionLayer.on_deliver)
    handlers = calls_of(
        stats, TxnParticipant._on_atomic, TxnParticipant._on_prepare, TxnParticipant._on_outcome
    )

    buf = io.StringIO()
    buf.write(
        f"profile_sim: {args.workload} (seed={args.seed}, scale={args.scale})\n"
        f"wall={wall:.3f}s ops={report.total_ops} "
        f"virtual_throughput={report.throughput:.1f} ops/s\n"
        f"lock releases={releases} (one per thread hand-off) "
        f"acquires={acquires} (parked time left out below)\n"
        f"context switches per hand-off, unprofiled pass: "
        f"voluntary={voluntary / max(1, releases):.2f} "
        f"involuntary={involuntary / max(1, releases):.2f}\n"
        f"EventQueue rows, with the heap built-ins they call: "
        f"{share_of_self_time(stats, EventQueue):.1%} of profiled self time\n"
        f"{census_table(census, report.total_ops)}"
    )
    if deliveries:
        buf.write(
            f"txn: member deliveries={deliveries} handler calls={handlers} "
            f"replayed queue items={replayed[0]} "
            f"ObjectSpec.clone calls={calls_of(stats, ObjectSpec.clone)}\n"
        )
    buf.write("\n")
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
