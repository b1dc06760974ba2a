"""PRIMARY RECOVERY — surviving a primary-copy crash, and what it costs.

The paper's point-to-point runtime loses an object when its primary's
machine dies.  The unified runtime now elects the surviving secondary with
the freshest coherence version (or restores the last committed record when
no valid copy survived — the primary-invalidate worst case) through an
epoch-stamped, totally-ordered ``takeover`` switch.  This benchmark
measures what a crash costs the clients:

* **unavailability window** — virtual time from the primary's crash to the
  takeover switch completing at the new primary (writes park, re-route and
  retry exactly once across the window);
* **write-latency spike** — the worst write latency observed by any client,
  against the no-crash baseline's;
* **post-recovery throughput** — completed writes per second in a fixed
  window after the takeover, against the same window of a no-crash
  baseline run (the recovered seat must serve at full speed).

Both primary policies are measured: ``primary-update`` recovers from a
surviving secondary copy, ``primary-invalidate`` (whose writes leave no
valid secondary) from the committed record.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.metrics.report import format_table
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 6
SEED = 42
WRITERS_PER_NODE = 2
OPS_PER_WRITER = 60
#: Fixed inter-write pacing per writer (open-loop: latency is measured from
#: the intended arrival, so the outage's queueing delay is charged to it).
GAP = 0.0004
CRASH_AT = 0.008
#: Throughput comparison window (virtual seconds) starting at the takeover.
TPUT_WINDOW = 0.008


class BenchLog(ObjectSpec):
    """Order-sensitive object: the applied write order IS its state."""

    def init(self):
        self.items = []

    @operation(write=True)
    def append(self, item):
        self.items.append(item)
        return len(self.items)


def run_recovery_cell(policy, crash=True, seed=SEED, num_nodes=NUM_NODES,
                      writers_per_node=WRITERS_PER_NODE,
                      ops_per_writer=OPS_PER_WRITER):
    """One cell: open-loop writers hammer a primary-copy log whose seat sits
    on a reserved victim node; optionally crash the victim mid-run."""
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast")
    victim = num_nodes - 1
    quiet = num_nodes - 2  # hosts the crasher only, so CRASH_AT stays exact
    handles = {}
    completions = []
    latencies = []

    def setup():
        proc = cluster.sim.current_process
        handles["log"] = rts.create_object(proc, BenchLog, name="log", policy=policy)
        rts.relocate_primary(proc, handles["log"], target=victim)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    assert rts.directory.primary_of(handles["log"].obj_id) == victim
    #: Workload epoch: crash schedule and measurement windows are relative
    #: to when the writers start, not to the cluster's setup time.
    t0 = cluster.sim.now

    def writer(node_id, writer_id):
        proc = cluster.sim.current_process
        start = proc.local_time
        for k in range(ops_per_writer):
            arrival = start + k * GAP
            if proc.local_time < arrival:
                proc.hold(arrival - proc.local_time)
            rts.invoke(proc, handles["log"], "append",
                       ((node_id, writer_id, k),))
            completions.append(proc.local_time)
            latencies.append(proc.local_time - arrival)

    def crasher():
        proc = cluster.sim.current_process
        proc.hold(CRASH_AT)
        cluster.node(victim).crash()

    for node in cluster.nodes:
        if node.node_id in (victim, quiet):
            continue
        for writer_id in range(writers_per_node):
            node.kernel.spawn_thread(writer, node.node_id, writer_id)
    if crash:
        cluster.node(quiet).kernel.spawn_thread(crasher)
    cluster.run()

    # Exactly-once + per-client FIFO over the final log.
    primary = rts.directory.primary_of(handles["log"].obj_id)
    assert cluster.node(primary).alive
    items = rts.managers[primary].get(handles["log"].obj_id).instance.items
    per_client = {}
    for node_id, writer_id, k in items:
        per_client.setdefault((node_id, writer_id), []).append(k)
    expected_writers = (num_nodes - 2) * writers_per_node
    fifo_ok = (len(per_client) == expected_writers
               and all(ks == list(range(ops_per_writer))
                       for ks in per_client.values()))

    if crash:
        assert rts.recoveries, "the crash must have triggered a takeover"
        record = rts.recoveries[0]
        window = record.window
        tput_from = record.completed_at
        source = "snapshot" if record.from_snapshot else "copy"
    else:
        window = None
        # Baseline throughput is read over the same virtual window a crash
        # cell would measure after its takeover.
        tput_from = t0 + CRASH_AT + 0.001
        source = None
    in_window = [t for t in completions if tput_from <= t < tput_from + TPUT_WINDOW]
    facts = {
        "policy": policy,
        "crashed": crash,
        "appends_applied": len(items),
        "expected_appends": expected_writers * ops_per_writer,
        "per_client_fifo": fifo_ok,
        "recovery_window": None if window is None else round(window, 9),
        "recovery_source": source,
        "max_write_latency": round(max(latencies), 9),
        "post_window_ops": len(in_window),
        "post_window_throughput": round(len(in_window) / TPUT_WINDOW, 3),
        "deduplicated_writes": rts.stats.deduplicated_writes,
        "final_primary": rts.directory.primary_of(handles["log"].obj_id),
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


def recovery_cells(**kwargs):
    """The four cells as zero-argument runners, sized by ``kwargs``."""
    return {
        "baseline-update": partial(run_recovery_cell, "primary-update",
                                   crash=False, **kwargs),
        "crash-update": partial(run_recovery_cell, "primary-update", **kwargs),
        "baseline-invalidate": partial(run_recovery_cell, "primary-invalidate",
                                       crash=False, **kwargs),
        "crash-invalidate": partial(run_recovery_cell, "primary-invalidate",
                                    **kwargs),
    }


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


def _print_cells(title, cells):
    rows = []
    for name, facts in cells.items():
        rows.append([
            name,
            facts["recovery_source"] or "-",
            "-" if facts["recovery_window"] is None
            else f"{facts['recovery_window'] * 1e3:.2f}",
            f"{facts['max_write_latency'] * 1e3:.2f}",
            f"{facts['post_window_throughput']:.0f}",
            str(facts["appends_applied"]),
            str(facts["per_client_fifo"]),
        ])
    print()
    print(format_table(
        ["cell", "source", "window ms", "max lat ms", "post ops/s",
         "appends", "fifo"],
        rows, title=title))


@pytest.mark.benchmark(group="primary-recovery")
def test_recovery_window_is_bounded_with_exactly_once_writes(benchmark):
    cells = run_once(benchmark, lambda: {name: run() for name, run in recovery_cells().items()})

    for name, facts in cells.items():
        # Every cell — crashed or not — applies every append exactly once,
        # in per-writer FIFO order.
        assert facts["appends_applied"] == facts["expected_appends"], (name,
                                                                       facts)
        assert facts["per_client_fifo"], (name, facts)
    for policy in ("update", "invalidate"):
        crashed = cells[f"crash-{policy}"]
        baseline = cells[f"baseline-{policy}"]
        # The acceptance claim: the seat is dark for a bounded window (well
        # under the pacing of the workload's 24 writers)...
        assert crashed["recovery_window"] is not None
        assert crashed["recovery_window"] < 0.01, crashed
        assert crashed["final_primary"] != NUM_NODES - 1
        # ... and the recovered seat serves the post-takeover window at
        # baseline speed (the outage does not linger).
        assert (crashed["post_window_throughput"]
                >= 0.6 * baseline["post_window_throughput"]), (crashed,
                                                               baseline)
    # The two policies recover through their different paths.
    assert cells["crash-update"]["recovery_source"] == "copy"
    assert cells["crash-invalidate"]["recovery_source"] == "snapshot"

    # Determinism: the crash cell replays byte-for-byte, takeover included.
    repeat = run_recovery_cell("primary-update")
    assert repeat == cells["crash-update"]

    benchmark.extra_info["cells"] = cells
    _print_cells(
        f"Primary crash at t={CRASH_AT * 1e3:.0f} ms under "
        f"{(NUM_NODES - 2) * WRITERS_PER_NODE} open-loop writers "
        f"({NUM_NODES} nodes, seed {SEED})", cells)

