"""ELASTICITY — rolling restarts, planned drains and live scale-in.

PR 5 made the cluster survive crashes; this benchmark closes the loop: a
recovered machine rejoins (history reseeded through each group's total
order, membership re-armed, primary seats handed back), a machine leaves
*gracefully* (every primary and sequencer seat evacuated before it stops,
so no client ever sees a dead-peer failure), and the broadcast-group set
shrinks under load (``remove_shard`` merges a group's order away).  Three
cells measure the loop:

* **rolling-restart** — every non-client machine is crashed, recovered and
  caught back up in sequence under live mixed-policy traffic; the cell
  reports rejoins, reseeded copies and the worst catch-up window, and
  asserts conservation (zero lost or duplicated writes);
* **drain** — a machine holding primary seats and a sequencer seat is
  drained mid-run: all seats move, the machine retires, and — the claim
  that separates a drain from a crash — *zero* takeovers fire and every
  writer completes exactly once;
* **scale-in** — a 4-group cluster merges down to 2 groups while a counter
  farm keeps writing; objects are evacuated through the retiring groups'
  total order with conservation intact.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig
from repro.metrics.report import format_table
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 5
SEED = 42
CLIENTS_PER_NODE = 2
OPS_PER_CLIENT = 60
DRAIN_AT = 0.006


class BenchLog(ObjectSpec):
    """Order-sensitive object: the applied write order IS its state."""

    def init(self):
        self.items = []

    @operation(write=True)
    def append(self, item):
        self.items.append(item)
        return len(self.items)


# ---------------------------------------------------------------------- #
# Cells
# ---------------------------------------------------------------------- #


def run_restart_cell(seed=SEED, num_nodes=NUM_NODES,
                     clients_per_node=CLIENTS_PER_NODE,
                     ops_per_client=OPS_PER_CLIENT):
    """Rolling restart of every non-client node under mixed-policy load."""
    spec = WorkloadSpec(name="rolling-restart", num_keys=8,
                        read_fraction=0.5, think_time=0.0005,
                        ops_per_client=ops_per_client)
    report = WorkloadRunner("rolling-restart", workload=spec,
                            runtime="adaptive", num_nodes=num_nodes,
                            clients_per_node=clients_per_node,
                            seed=seed).run()
    facts = report.scenario_facts
    elasticity = report.rts_summary.get("elasticity") or {}
    return {
        "writes": report.writes,
        "counter_total": facts["counter_total"],
        "restarted_nodes": facts.get("restarted_nodes", []),
        "rejoins": elasticity.get("node_rejoins", 0),
        "objects_reseeded": elasticity.get("objects_reseeded", 0),
        "seats_handed_back": elasticity.get("seats_handed_back", 0),
        "max_rejoin_window": elasticity.get("max_rejoin_window"),
        "rejoin_log": [list(entry)
                       for entry in elasticity.get("rejoin_log", [])],
        "policies": dict(sorted(report.final_policies().items())),
        **report.counters(),
    }


def run_drain_cell(seed=SEED, num_nodes=NUM_NODES,
                   writers_per_node=CLIENTS_PER_NODE,
                   ops_per_writer=OPS_PER_CLIENT):
    """Drain a machine holding primary + sequencer seats under live writes.

    The victim hosts both primary-policy logs' seats and (being the first
    machine) shard 0's sequencer seat; writers on the other machines keep
    appending while ``drain_node`` evacuates everything.  A drain differs
    from a crash precisely in what must NOT happen: no takeover, no failed
    RPC, no re-issued write.
    """
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    rts = HybridRts(cluster, default_policy="broadcast")
    victim = 0  # node 0 seats shard sequencers, the interesting drain
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        handles["update"] = rts.create_object(
            proc, BenchLog, name="log-update", policy="primary-update")
        handles["invalidate"] = rts.create_object(
            proc, BenchLog, name="log-invalidate",
            policy="primary-invalidate")
        handles["shared"] = rts.create_object(
            proc, BenchLog, name="log-broadcast", policy="broadcast")
        for key in ("update", "invalidate"):
            rts.relocate_primary(proc, handles[key], target=victim)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    assert rts.directory.primary_of(handles["update"].obj_id) == victim
    drained = {}

    def writer(node_id, writer_id):
        proc = cluster.sim.current_process
        targets = ("update", "invalidate", "shared")
        for k in range(ops_per_writer):
            handle = handles[targets[k % len(targets)]]
            rts.invoke(proc, handle, "append", ((node_id, writer_id, k),))
            proc.hold(0.0003)

    def drainer():
        proc = cluster.sim.current_process
        proc.hold(DRAIN_AT)
        drained["ok"] = rts.drain_node(proc, victim)

    for node in cluster.nodes:
        if node.node_id == victim:
            continue
        for writer_id in range(writers_per_node):
            node.kernel.spawn_thread(writer, node.node_id, writer_id)
    cluster.node(1).kernel.spawn_thread(drainer)
    cluster.run()

    # Exactly-once + per-writer FIFO across all three logs combined.
    per_client = {}
    applied = 0
    for key in ("update", "invalidate", "shared"):
        obj_id = handles[key].obj_id
        holder = (rts.directory.primary_of(obj_id)
                  if key != "shared" else
                  next(n.node_id for n in cluster.nodes if n.alive))
        items = rts.managers[holder].get(obj_id).instance.items
        applied += len(items)
        for node_id, writer_id, k in items:
            # Per (log, writer): each writer round-robins the three logs,
            # so FIFO holds within a log, not across them.
            per_client.setdefault((key, node_id, writer_id), []).append(k)
    fifo_ok = all(ks == sorted(ks) and len(ks) == len(set(ks)) for ks in per_client.values())
    expected = (num_nodes - 1) * writers_per_node * ops_per_writer
    record = rts.drains[0] if rts.drains else None
    facts = {
        "drained": bool(drained.get("ok")),
        "victim_alive": cluster.node(victim).alive,
        "appends_applied": applied,
        "expected_appends": expected,
        "per_client_fifo": fifo_ok,
        "takeovers": rts.stats.primary_recoveries,
        "primary_seats_moved": (record.primary_seats_moved
                                if record else 0),
        "sequencer_seats_moved": (record.sequencer_seats_moved
                                  if record else 0),
        "drain_window": (None if record is None or record.completed_at is None
                         else round(record.completed_at - record.started_at, 9)),
        "deduplicated_writes": rts.stats.deduplicated_writes,
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


def run_scale_in_cell(seed=SEED, num_nodes=NUM_NODES,
                      clients_per_node=CLIENTS_PER_NODE,
                      ops_per_client=OPS_PER_CLIENT):
    """Merge a 4-group cluster down to 2 groups under counter-farm load."""
    spec = WorkloadSpec(name="scale-in", num_keys=16, read_fraction=0.5,
                        think_time=0.0005, ops_per_client=ops_per_client)
    report = WorkloadRunner("scale-in", workload=spec, runtime="broadcast",
                            num_nodes=num_nodes,
                            clients_per_node=clients_per_node,
                            seed=seed, num_shards=4).run()
    facts = report.scenario_facts
    elasticity = report.rts_summary.get("elasticity") or {}
    return {
        "writes": report.writes,
        "counter_total": facts["counter_total"],
        "shards_removed": elasticity.get("shards_removed", 0),
        "removed_shards": list(elasticity.get("removed_shards", [])),
        "active_shards": facts.get("active_shards"),
        "shard_moves": report.rts_summary.get("rebalancing", {}).get(
            "moves", 0),
        **report.counters(),
    }


def elasticity_cells(**kwargs):
    """The three cells as zero-argument runners, sized by ``kwargs``."""
    return {
        "rolling-restart": partial(run_restart_cell, **kwargs),
        "drain": partial(
            run_drain_cell,
            seed=kwargs.get("seed", SEED),
            num_nodes=kwargs.get("num_nodes", NUM_NODES),
            writers_per_node=kwargs.get("clients_per_node",
                                        CLIENTS_PER_NODE),
            ops_per_writer=kwargs.get("ops_per_client", OPS_PER_CLIENT)),
        "scale-in": partial(run_scale_in_cell, **kwargs),
    }


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


def _print_cells(title, cells):
    restart, drain, scale = (cells["rolling-restart"], cells["drain"], cells["scale-in"])
    rows = [
        ["rolling-restart",
         f"{len(restart['restarted_nodes'])} nodes",
         f"rejoins={restart['rejoins']}",
         f"reseeded={restart['objects_reseeded']}",
         f"{restart['counter_total']}/{restart['writes']}"],
        ["drain",
         f"seats={drain['primary_seats_moved']}+"
         f"{drain['sequencer_seats_moved']}",
         f"takeovers={drain['takeovers']}",
         f"window={0 if drain['drain_window'] is None else drain['drain_window'] * 1e3:.2f}ms",
         f"{drain['appends_applied']}/{drain['expected_appends']}"],
        ["scale-in",
         f"4->{scale['active_shards']} groups",
         f"removed={scale['removed_shards']}",
         f"moves={scale['shard_moves']}",
         f"{scale['counter_total']}/{scale['writes']}"],
    ]
    print()
    print(format_table(["cell", "scope", "events", "cost", "conserved"], rows, title=title))


@pytest.mark.benchmark(group="elasticity")
def test_elasticity_loop_conserves_every_write(benchmark):
    cells = run_once(benchmark, lambda: {name: run() for name, run in elasticity_cells().items()})

    restart = cells["rolling-restart"]
    # Every non-client node restarted, every restart produced a completed
    # rejoin that reseeded real object copies, and nothing was lost.
    assert restart["restarted_nodes"] == list(range(2, NUM_NODES))
    assert restart["rejoins"] == NUM_NODES - 2
    assert restart["objects_reseeded"] > 0
    assert restart["counter_total"] == restart["writes"], restart

    drain = cells["drain"]
    # The drain claim: seats moved, the machine retired, and the failure
    # path never fired — zero takeovers, zero re-issued writes, all
    # appends exactly once in per-writer FIFO order.
    assert drain["drained"] and not drain["victim_alive"]
    assert drain["takeovers"] == 0, drain
    assert drain["primary_seats_moved"] >= 2
    assert drain["sequencer_seats_moved"] >= 1
    assert drain["appends_applied"] == drain["expected_appends"], drain
    assert drain["per_client_fifo"], drain

    scale = cells["scale-in"]
    assert scale["shards_removed"] == 2
    assert scale["active_shards"] == 2
    assert scale["counter_total"] == scale["writes"], scale

    # Determinism: the most chaotic cell replays byte-for-byte.
    repeat = run_restart_cell()
    assert repeat == restart

    benchmark.extra_info["cells"] = cells
    _print_cells(f"Elasticity loop on {NUM_NODES} nodes (seed {SEED})", cells)

