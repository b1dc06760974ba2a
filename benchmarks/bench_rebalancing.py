"""REBALANCING — moving hot objects across broadcast groups at run time.

Static sharding breaks the single-sequencer ceiling, but it pins every
object to the group it hashed to at creation: under a Zipfian-skewed
workload one sequencer melts while the others idle.  This benchmark measures
the online drain-and-switch rebalancing that fixes it, in three cells:

* **Skewed counter farm, no flow control** — 64 Zipf(s=1.2) counters whose
  name-hash placement clumps ~43% of the write traffic onto one of four
  groups.  The melted sequencer's queue outlives the senders' retry timers,
  so duplicate retransmissions eat its service capacity — the overload
  spiral.  Online rebalancing drains hot objects onto the idle groups and
  must recover **>= 1.3x the static-placement write throughput** (measured
  ~1.9x).  An oracle cell (weight-balanced explicit placement) shows the
  ceiling.
* **Skewed counter farm + batch-aware flow control** — the same shape with
  ``backpressure_depth`` coupling the batching window to the sequencer
  queue: the spiral is capped for *everyone*, static placement stops
  collapsing, and rebalancing composes with flow control to reach the
  oracle placement's throughput.
* **Live group growth** — a cluster born with ONE broadcast group under a
  multi-log append workload; the rebalancing controller adds three groups
  to the running cluster (``grow_to=4``) and spreads the logs over them,
  with per-client FIFO and exactly-once delivery intact and zero elections.

Deterministic under the fixed seed; the rebalanced cell is re-run and
compared fingerprint-for-fingerprint (move points included).
"""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.metrics.latency import format_latency_row
from repro.metrics.report import format_table
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.rts.sharding import ExplicitPlacement, HashPlacement
from repro.workloads import WorkloadRunner, WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 8
SEED = 42
NUM_SHARDS = 4
CLIENTS_PER_NODE = 5

#: 1 ms of ordering service per message: a lone sequencer caps at 1000
#: msgs/s, which the write-only skewed farm saturates several times over.
COST_MODEL = CostModel().with_overrides(cpu={"sequencing_cost": 1.0e-3})
#: The flow-control cell runs an even slower sequencer so that *batched*
#: traffic still saturates the hot group.
SLOW_COST_MODEL = CostModel().with_overrides(cpu={"sequencing_cost": 4.0e-3})

#: Write-only Zipfian traffic over 64 counters.  CRC name-hash placement
#: over 4 shards clumps the hottest ranks: one group carries ~43% of the
#: writes while the best achievable bin (the top key alone) is ~29%.
SKEW_SPEC = WorkloadSpec(name="skewed-writes", num_keys=64,
                         popularity="zipfian", zipf_s=1.2, read_fraction=0.0,
                         ops_per_client=100, think_time=0.0)

FLOW_SPEC = SKEW_SPEC.with_overrides(name="skewed-writes-fc", zipf_s=1.3, ops_per_client=150)

REBALANCE = {"interval": 0.004, "imbalance": 1.4, "min_writes": 64, "max_moves": 3}

BACKPRESSURE_BATCHING = {"max_batch": 4, "flush_delay": 0.0, "backpressure_depth": 8}


def oracle_placement(spec: WorkloadSpec) -> ExplicitPlacement:
    """Weight-balanced explicit placement: greedy Zipf bin-packing.

    The static optimum a clairvoyant operator could configure — the
    reference "uniform placement" the rebalancer is measured against.
    """
    weights = sorted(((1.0 / ((k + 1) ** spec.zipf_s), k)
                      for k in range(spec.num_keys)), reverse=True)
    bins = [0.0] * NUM_SHARDS
    assignments = {}
    for weight, key in weights:
        target = min(range(NUM_SHARDS), key=lambda b: (bins[b], b))
        bins[target] += weight
        assignments[f"counter[{key}]"] = target
    return ExplicitPlacement(NUM_SHARDS, assignments)


def run_cell(spec: WorkloadSpec, placement, rebalance=None, batching=None,
             cost_model=COST_MODEL, num_nodes=NUM_NODES,
             clients_per_node=CLIENTS_PER_NODE):
    options = {"placement": placement}
    if rebalance is not None:
        options["rebalance"] = dict(rebalance)
    return WorkloadRunner(
        "counter-farm", workload=spec, runtime="broadcast",
        num_nodes=num_nodes, clients_per_node=clients_per_node, seed=SEED,
        num_shards=NUM_SHARDS, batching=batching, rts_options=options,
        config=ClusterConfig(num_nodes=num_nodes, seed=SEED,
                             cost_model=cost_model)).run()


def skew_cells(spec: WorkloadSpec, batching=None, cost_model=COST_MODEL):
    """The three placements under one workload: static hash / oracle /
    online-rebalanced."""
    return {
        "static-hash": run_cell(spec, HashPlacement(NUM_SHARDS, by="name"),
                                batching=batching, cost_model=cost_model),
        "oracle": run_cell(spec, oracle_placement(spec), batching=batching,
                           cost_model=cost_model),
        "rebalanced": run_cell(spec, HashPlacement(NUM_SHARDS, by="name"),
                               rebalance=REBALANCE, batching=batching,
                               cost_model=cost_model),
    }


# ---------------------------------------------------------------------- #
# Live group growth under an order-sensitive workload (direct harness)
# ---------------------------------------------------------------------- #


class BenchLog(ObjectSpec):
    """Order-sensitive object: the applied write order IS its state."""

    def init(self):
        self.items = []

    @operation(write=True)
    def append(self, item):
        self.items.append(item)
        return len(self.items)


def run_live_growth(seed=SEED, writers_per_node=2, ops_per_writer=40,
                    num_nodes=NUM_NODES, grow_to=4):
    """Start with ONE broadcast group; let the controller add groups to the
    running cluster and spread the logs over them; returns order facts."""
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed, cost_model=COST_MODEL))
    rts = HybridRts(cluster, default_policy="broadcast", num_shards=1,
                    rebalance={"interval": 0.004, "imbalance": 1.4,
                               "min_writes": 48, "max_moves": 3,
                               "grow_to": grow_to})
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        for i in range(num_nodes):
            handles[i] = rts.create_object(proc, BenchLog, name=f"log[{i}]")

    def writer(node_id, writer_id):
        proc = cluster.sim.current_process
        for k in range(ops_per_writer):
            rts.invoke(proc, handles[node_id % num_nodes], "append",
                       ((node_id, writer_id, k),))
            proc.hold(0.0002)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    for node in cluster.nodes:
        for writer_id in range(writers_per_node):
            node.kernel.spawn_thread(writer, node.node_id, writer_id)
    cluster.run()

    fifo_ok = True
    replicas_agree = True
    appends = 0
    for i in range(num_nodes):
        items = rts.managers[0].get(handles[i].obj_id).instance.items
        appends += len(items)
        per_client = {}
        for node_id, writer_id, k in items:
            per_client.setdefault((node_id, writer_id), []).append(k)
        fifo_ok &= all(ks == list(range(ops_per_writer)) for ks in per_client.values())
        fifo_ok &= len(per_client) == writers_per_node
        for node in cluster.nodes:
            replicas_agree &= (rts.managers[node.node_id]
                               .get(handles[i].obj_id).instance.items == items)
    facts = {
        "final_shards": rts.router.num_shards,
        "shards_added": rts.stats.shards_added,
        "moves": rts.stats.shard_moves,
        "placement": {h.name: rts.shard_of(h)
                      for h in sorted(handles.values(), key=lambda h: h.name)},
        "appends_applied": appends,
        "expected_appends": num_nodes * writers_per_node * ops_per_writer,
        "per_client_fifo": fifo_ok,
        "replicas_agree": replicas_agree,
        "elections": sum(g.stats.elections for g in rts.router.groups),
        "deliveries_per_group": {g.group_id: g.stats.deliveries
                                 for g in rts.router.groups},
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


def _print_cells(title, reports, extra_cols=()):
    rows = []
    for name, report in reports.items():
        p50, p95, p99, mean = format_latency_row(report.request_latency["overall"])
        rebal = report.rts_summary.get("rebalancing", {})
        row = [name, f"{report.throughput:.0f}", p50, p95, p99, str(rebal.get("moves", 0))]
        for col in extra_cols:
            row.append(str(report.rts_summary.get(col, 0)))
        rows.append(row)
    headers = ["placement", "ops/s", "p50 ms", "p95 ms", "p99 ms", "moves"]
    headers += list(extra_cols)
    print()
    print(format_table(headers, rows, title=title))


@pytest.mark.benchmark(group="rebalancing")
def test_rebalancing_recovers_skewed_write_throughput(benchmark):
    def experiment():
        return skew_cells(SKEW_SPEC)

    reports = run_once(benchmark, experiment)

    throughput = {name: r.throughput for name, r in reports.items()}
    # The acceptance claim: online rebalancing recovers >= 1.3x the static
    # hash placement's write throughput on the skewed farm (measured ~1.9x:
    # the melted sequencer's retry spiral makes static placement *worse*
    # than its share imbalance alone would suggest).
    assert throughput["rebalanced"] >= 1.3 * throughput["static-hash"], throughput
    assert throughput["oracle"] > throughput["static-hash"], throughput

    rebalancing = reports["rebalanced"].rts_summary["rebalancing"]
    assert rebalancing["moves"] >= 3
    assert rebalancing["placement_epoch"] >= rebalancing["moves"]
    # The static cells never moved anything.
    for name in ("static-hash", "oracle"):
        assert "rebalancing" not in reports[name].rts_summary
    # Every cell applied every write exactly once (counter conservation is
    # asserted inside the scenario's validate()).
    for report in reports.values():
        assert report.scenario_facts["counter_total"] == report.writes

    # Determinism: re-running the rebalanced cell reproduces it exactly,
    # move points included.
    repeat = run_cell(SKEW_SPEC, HashPlacement(NUM_SHARDS, by="name"),
                      rebalance=REBALANCE)
    assert repeat.fingerprint() == reports["rebalanced"].fingerprint()

    benchmark.extra_info["throughput"] = {k: round(v, 3) for k, v in throughput.items()}
    benchmark.extra_info["moves"] = rebalancing["moves"]
    benchmark.extra_info["cells"] = {k: r.fingerprint() for k, r in reports.items()}
    _print_cells(
        f"Zipf(s={SKEW_SPEC.zipf_s}) write-only counter farm, no flow "
        f"control ({NUM_NODES} nodes, {NUM_SHARDS} shards, "
        f"{CLIENTS_PER_NODE} clients/node, seed {SEED})", reports)


@pytest.mark.benchmark(group="rebalancing")
def test_rebalancing_composes_with_flow_control(benchmark):
    def experiment():
        return skew_cells(FLOW_SPEC, batching=dict(BACKPRESSURE_BATCHING),
                          cost_model=SLOW_COST_MODEL)

    reports = run_once(benchmark, experiment)

    throughput = {name: r.throughput for name, r in reports.items()}
    # Flow control stops the retry spiral for everyone, so the static gap
    # narrows to the share imbalance itself — and rebalancing closes it,
    # reaching the clairvoyant oracle placement's throughput.
    assert throughput["rebalanced"] >= 1.1 * throughput["static-hash"], throughput
    assert throughput["rebalanced"] >= 0.85 * throughput["oracle"], throughput
    # The backpressure knob actually engaged in every cell.
    for name, report in reports.items():
        assert report.rts_summary.get("flow_control_holds", 0) > 0, name
        assert report.scenario_facts["counter_total"] == report.writes

    benchmark.extra_info["throughput"] = {k: round(v, 3) for k, v in throughput.items()}
    benchmark.extra_info["cells"] = {k: r.fingerprint() for k, r in reports.items()}
    _print_cells(
        f"Zipf(s={FLOW_SPEC.zipf_s}) counter farm with batch-aware flow "
        f"control ({NUM_NODES} nodes, {NUM_SHARDS} shards, seed {SEED})",
        reports, extra_cols=("flow_control_holds",))


@pytest.mark.benchmark(group="rebalancing")
def test_live_group_add_preserves_per_client_fifo(benchmark):
    facts = run_once(benchmark, run_live_growth)

    # The cluster grew from one broadcast group to four while the writers
    # ran, and the controller spread the logs over the new groups.
    assert facts["final_shards"] == 4, facts
    assert facts["shards_added"] == 3, facts
    assert facts["moves"] >= 3, facts
    assert len(set(facts["placement"].values())) >= 3, facts
    for group_id, deliveries in facts["deliveries_per_group"].items():
        assert deliveries > 0, facts
    # ... with every append applied exactly once, in per-client order, the
    # same everywhere, and without a single (spurious) election.
    assert facts["appends_applied"] == facts["expected_appends"], facts
    assert facts["per_client_fifo"], facts
    assert facts["replicas_agree"], facts
    assert facts["elections"] == 0, facts

    benchmark.extra_info["facts"] = facts
    print()
    print(format_table(
        ["shards", "added", "moves", "appends", "fifo", "elections"],
        [[str(facts["final_shards"]), str(facts["shards_added"]),
          str(facts["moves"]), str(facts["appends_applied"]),
          str(facts["per_client_fifo"]), str(facts["elections"])]],
        title="Live add_group() under an order-sensitive append workload"))

