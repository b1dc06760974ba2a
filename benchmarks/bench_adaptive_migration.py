"""ADAPTIVE — per-object policies + online migration vs. the fixed runtimes.

The paper's two runtime systems are endpoints of one management spectrum;
this benchmark shows the payoff of choosing the point *per object, at run
time*.  One cluster, one shared Ethernet, one mixed workload:

* **counter-farm, Zipfian read-mostly/write-hot mix** — 16 counters where
  the two Zipf-hottest keys take write-dominated traffic while the cold
  tail is read-mostly.  A fixed broadcast runtime pays the loaded sequencer
  on every hot write; a fixed primary-copy runtime pays RPCs (or coherence
  fan-out) on the cold reads.  The adaptive runtime migrates the hot
  counters to primary-copy management and leaves the tail broadcast
  replicated — and must **beat both fixed runtimes on throughput**.
* **fifo-queue** — every request is an RTS-level write on one object (the
  broadcast-heaviest case).  The adaptive runtime migrates the queue to a
  primary copy early on and must **match the better fixed runtime's p99**
  (within 10%) while beating the broadcast runtime's tail outright.
* **migration during a sequencer election** — the switch message is
  broadcast while the shard's sequencer is crashed and the election is
  still open; every client's writes must still apply exactly once, in
  issue order.

All cells run every runtime on the *same* shared-Ethernet hardware and the
loaded-sequencer regime (0.2 ms ordering service per message), so the
comparison isolates the management policy.  Deterministic under the fixed
seed; one cell is re-run and compared fingerprint-for-fingerprint.
"""

from __future__ import annotations

import pytest

from repro.amoeba.cluster import Cluster
from repro.config import ClusterConfig, CostModel
from repro.metrics.latency import format_latency_row
from repro.metrics.report import format_table
from repro.rts.hybrid import HybridRts
from repro.rts.object_model import ObjectSpec, operation
from repro.workloads import WorkloadRunner, WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 8
SEED = 42
CLIENTS_PER_NODE = 4
RUNTIMES = ("broadcast", "p2p", "adaptive")

#: The loaded-sequencer regime from the sharding benchmark: 0.2 ms of
#: ordering service caps one sequencer at 5000 msgs/s, which the write-hot
#: traffic saturates — the cost a fixed broadcast runtime cannot escape.
COST_MODEL = CostModel().with_overrides(cpu={"sequencing_cost": 2.0e-4})

#: Zipfian read-mostly/write-hot mix: the two hottest keys are 96%-write,
#: the cold tail 97%-read.  Different objects, genuinely different mixes —
#: exactly the input per-object policies exist for.
MIXED_SPEC = WorkloadSpec(name="mixed-hot-cold", num_keys=16,
                          read_fraction=0.97, hot_keys=2,
                          hot_read_fraction=0.04, popularity="zipfian",
                          zipf_s=1.1, ops_per_client=100, think_time=0.0003)

#: Producer/consumer queue traffic: put *and* poll are writes, so this is
#: the scenario whose tail latency the migration must rescue.  Long enough
#: that the one-time transition settles out of the steady state.
FIFO_SPEC = WorkloadSpec(name="fifo-queue", read_fraction=0.5,
                         ops_per_client=640, think_time=0.0005)

#: Controller used for the counter-farm cell: with 32 clients hammering the
#: hot keys, eight accesses are plenty of evidence — reacting early keeps
#: the costly pre-migration regime short.
FAST_CONTROLLER = {"min_accesses": 8, "check_interval": 4}


def run_cell(scenario: str, runtime: str, spec: WorkloadSpec, controller=None,
             num_nodes=NUM_NODES, clients_per_node=CLIENTS_PER_NODE):
    # Every runtime on the same shared Ethernet: the comparison varies the
    # management policy, not the interconnect.
    options = None
    if runtime == "adaptive" and controller is not None:
        options = {"default_policy": dict(controller)}
    return WorkloadRunner(
        scenario, workload=spec, runtime=runtime, num_nodes=num_nodes,
        clients_per_node=clients_per_node, seed=SEED,
        network_type="ethernet", rts_options=options,
        config=ClusterConfig(num_nodes=num_nodes, seed=SEED,
                             cost_model=COST_MODEL)).run()


# ---------------------------------------------------------------------- #
# Migration racing a sequencer election (direct harness, no runner)
# ---------------------------------------------------------------------- #


class BenchLog(ObjectSpec):
    """Order-sensitive object: the applied write order IS its state."""

    def init(self):
        self.items = []

    @operation(write=True)
    def append(self, item):
        self.items.append(item)
        return len(self.items)


def run_election_migration(seed=SEED, writers_per_node=2, ops_per_writer=12):
    """Crash the sequencer, then migrate the hot object while the election
    is still open; returns per-client order facts."""
    cluster = Cluster(ClusterConfig(num_nodes=NUM_NODES, seed=seed, cost_model=COST_MODEL))
    rts = HybridRts(cluster, default_policy="broadcast")
    handles = {}

    def setup():
        proc = cluster.sim.current_process
        handles["log"] = rts.create_object(proc, BenchLog, name="log")

    def writer(node_id, writer_id):
        proc = cluster.sim.current_process
        for k in range(ops_per_writer):
            rts.invoke(proc, handles["log"], "append",
                       ((node_id, writer_id, k),))
            proc.hold(0.0004)

    def crasher():
        proc = cluster.sim.current_process
        proc.hold(0.004)
        cluster.node(rts.group.sequencer_node_id).crash()

    def migrator():
        proc = cluster.sim.current_process
        # Just after the crash, before any election can have concluded: the
        # switch broadcast has to survive the failover itself.
        proc.hold(0.0042)
        rts.migrate(proc, handles["log"], "primary-invalidate", primary=2)

    cluster.node(0).kernel.spawn_thread(setup)
    cluster.run()
    crashed = rts.group.sequencer_node_id
    for node in cluster.nodes:
        if node.node_id == crashed:
            continue
        for writer_id in range(writers_per_node):
            node.kernel.spawn_thread(writer, node.node_id, writer_id)
    cluster.node(2).kernel.spawn_thread(migrator)
    cluster.node(1).kernel.spawn_thread(crasher)
    cluster.run()

    primary = rts.directory.primary_of(handles["log"].obj_id)
    log = [tuple(item) for item in rts.managers[primary].get(handles["log"].obj_id).instance.items]
    per_client = {}
    for node_id, writer_id, k in log:
        per_client.setdefault((node_id, writer_id), []).append(k)
    fifo_ok = all(ks == list(range(ops_per_writer)) for ks in per_client.values())
    complete = len(per_client) == (NUM_NODES - 1) * writers_per_node
    facts = {
        "elections": rts.group.stats.elections,
        "appends_applied": len(log),
        "writers": len(per_client),
        "per_client_fifo": fifo_ok,
        "all_writers_complete": complete,
        "policy": rts.policy_of(handles["log"]),
        "new_sequencer": rts.group.sequencer_node_id,
        "crashed": crashed,
        **cluster.counters(),
    }
    cluster.shutdown()
    return facts


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


@pytest.mark.benchmark(group="adaptive")
def test_adaptive_beats_fixed_runtimes_on_mixed_counter_farm(benchmark):
    def experiment():
        return {rt: run_cell("counter-farm", rt, MIXED_SPEC,
                             controller=FAST_CONTROLLER)
                for rt in RUNTIMES}

    reports = run_once(benchmark, experiment)

    throughput = {rt: r.throughput for rt, r in reports.items()}
    # The tentpole claim: choosing the management policy per object beats
    # either cluster-wide choice on the mixed workload.
    best_fixed = max(throughput["broadcast"], throughput["p2p"])
    assert throughput["adaptive"] > best_fixed, throughput
    # Median latency improves as well: cold reads stay local while hot
    # writes skip the loaded sequencer.
    p50 = {rt: r.percentile_row()["p50"] for rt, r in reports.items()}
    assert p50["adaptive"] < p50["broadcast"], p50
    assert p50["adaptive"] < p50["p2p"], p50

    # The hot counters migrated to a primary copy; the cold tail stayed
    # broadcast replicated.
    policies = reports["adaptive"].final_policies()
    assert policies["counter[0]"] == "primary-invalidate", policies
    assert policies["counter[1]"] == "primary-invalidate", policies
    cold = {policies[f"counter[{i}]"] for i in range(4, 16)}
    assert cold == {"broadcast"}, policies
    migrations = reports["adaptive"].rts_summary["migrations"]
    assert migrations["to_primary"] >= 2

    # Determinism: re-running the adaptive cell reproduces it exactly,
    # migration points included.
    repeat = run_cell("counter-farm", "adaptive", MIXED_SPEC,
                      controller=FAST_CONTROLLER)
    assert repeat.fingerprint() == reports["adaptive"].fingerprint()

    rows = []
    for rt, report in reports.items():
        p50s, p95, p99, mean = format_latency_row(report.request_latency["overall"])
        migs = report.rts_summary.get("migrations", {}).get("total", 0)
        rows.append([rt, f"{report.throughput:.0f}", p50s, p95, p99, mean, str(migs)])
    benchmark.extra_info["throughput"] = {rt: round(t, 3) for rt, t in throughput.items()}
    benchmark.extra_info["policies"] = policies
    benchmark.extra_info["cells"] = {rt: r.fingerprint() for rt, r in reports.items()}
    print()
    print(format_table(
        ["runtime", "ops/s", "p50 ms", "p95 ms", "p99 ms", "mean ms",
         "migrations"],
        rows,
        title=f"Mixed hot/cold counter farm ({NUM_NODES} nodes, "
              f"{CLIENTS_PER_NODE} clients/node, seed {SEED}, shared "
              "Ethernet, loaded sequencer)"))


@pytest.mark.benchmark(group="adaptive")
def test_adaptive_matches_best_fixed_p99_on_fifo_queue(benchmark):
    def experiment():
        return {rt: run_cell("fifo-queue", rt, FIFO_SPEC) for rt in RUNTIMES}

    reports = run_once(benchmark, experiment)

    p99 = {rt: r.percentile_row()["p99"] for rt, r in reports.items()}
    # The queue migrates to a primary copy early; after the (one-time)
    # transition the tail matches the better fixed runtime and beats the
    # broadcast runtime's sequencer-bound tail outright.
    best_fixed = min(p99["broadcast"], p99["p2p"])
    assert p99["adaptive"] <= 1.10 * best_fixed, p99
    assert p99["adaptive"] < 0.5 * p99["broadcast"], p99
    p95 = {rt: r.percentile_row()["p95"] for rt, r in reports.items()}
    assert p95["adaptive"] <= 1.05 * min(p95.values()), p95

    policies = reports["adaptive"].final_policies()
    assert policies["job-queue"] == "primary-invalidate", policies
    # Queue conservation held in every cell.
    for report in reports.values():
        facts = report.scenario_facts
        assert facts["enqueued"] - facts["dequeued"] == facts["backlog"]

    rows = []
    for rt, report in reports.items():
        p50s, p95s, p99s, mean = format_latency_row(report.request_latency["overall"])
        rows.append([rt, f"{report.throughput:.0f}", p50s, p95s, p99s, mean])
    benchmark.extra_info["p99_by_runtime"] = {rt: round(v, 6) for rt, v in p99.items()}
    benchmark.extra_info["cells"] = {rt: r.fingerprint() for rt, r in reports.items()}
    print()
    print(format_table(
        ["runtime", "ops/s", "p50 ms", "p95 ms", "p99 ms", "mean ms"],
        rows,
        title=f"FIFO queue, all-write traffic ({NUM_NODES} nodes, "
              f"{CLIENTS_PER_NODE} clients/node, seed {SEED}, shared "
              "Ethernet, loaded sequencer)"))


@pytest.mark.benchmark(group="adaptive")
def test_migration_completes_through_a_sequencer_election(benchmark):
    facts = run_once(benchmark, run_election_migration)

    assert facts["elections"] >= 1, facts
    assert facts["policy"] == "primary-invalidate", facts
    assert facts["per_client_fifo"], facts
    assert facts["all_writers_complete"], facts
    assert facts["appends_applied"] == (NUM_NODES - 1) * 2 * 12, facts
    assert facts["new_sequencer"] != facts["crashed"]

    benchmark.extra_info["facts"] = facts
    print()
    print(format_table(
        ["elections", "appends", "writers", "fifo", "policy"],
        [[str(facts["elections"]), str(facts["appends_applied"]),
          str(facts["writers"]), str(facts["per_client_fifo"]),
          facts["policy"]]],
        title="Policy switch broadcast across a sequencer crash + election"))

