"""SHARDING — throughput vs. shard count, and batched vs. unbatched writes.

The broadcast RTS funnels every write through one sequencer whose per-message
ordering work (``cpu.sequencing_cost``) gives it a hard service rate; under a
write-heavy load that single queue is the cluster-wide throughput ceiling.
This benchmark measures two ways of breaking it:

* **Sharding** — the counter-farm scenario (independent counters, no shared
  hot spot) swept over 1/2/4/8 broadcast groups with sequencer seats spread
  round-robin over the machines.  Throughput must rise monotonically from
  1 to 4 shards.
* **Write batching** — the fifo-queue scenario (every request is an RTS-level
  write on one object, the broadcast-heaviest case) run with batching off,
  group-commit batching (``flush_delay=0``), and a small flush window.  The
  batched write path must beat the unbatched p99.

Everything is deterministic under the fixed seed; one cell is re-run and
compared fingerprint-for-fingerprint.
"""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, CostModel
from repro.metrics.latency import format_latency_row
from repro.metrics.report import format_table
from repro.workloads import WorkloadRunner, WorkloadSpec

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 8
SEED = 42
SHARD_COUNTS = [1, 2, 4, 8]

#: The loaded-sequencer regime: 0.2 ms of ordering service per message caps
#: one sequencer at 5000 msgs/s, which the write-heavy workloads below
#: saturate.  (The default cost model keeps this far below the paper
#: applications' message rates; here the ceiling is the subject.)
COST_MODEL = CostModel().with_overrides(cpu={"sequencing_cost": 2.0e-4})

#: Write-only counter traffic: each client increments random counters, which
#: keeps every request on the sequenced write path without any object-level
#: hot spot (the counters are independent and spread over the shards).
SHARD_SPEC = WorkloadSpec(name="counter-farm-writes", num_keys=16,
                          read_fraction=0.0, ops_per_client=40,
                          think_time=0.0005)
SHARD_CLIENTS_PER_NODE = 6

#: Balanced produce/consume queue traffic; put *and* poll are writes, so this
#: is the scenario whose tail latency batching is expected to rescue.
FIFO_SPEC = WorkloadSpec(name="fifo-queue", read_fraction=0.5,
                         ops_per_client=40, think_time=0.0005)
FIFO_CLIENTS_PER_NODE = 4

BATCHING_MODES = {
    "unbatched": None,
    "group-commit": {"max_batch": 8, "flush_delay": 0.0},
    "windowed": {"max_batch": 8, "flush_delay": 0.0005},
}


def run_shard_cell(num_shards: int, batching=None):
    runner = WorkloadRunner("counter-farm", workload=SHARD_SPEC,
                            runtime="broadcast", num_nodes=NUM_NODES,
                            clients_per_node=SHARD_CLIENTS_PER_NODE,
                            seed=SEED, num_shards=num_shards,
                            batching=batching,
                            config=ClusterConfig(num_nodes=NUM_NODES,
                                                 seed=SEED,
                                                 cost_model=COST_MODEL))
    return runner.run()


def run_fifo_cell(mode: str):
    runner = WorkloadRunner("fifo-queue", workload=FIFO_SPEC,
                            runtime="broadcast", num_nodes=NUM_NODES,
                            clients_per_node=FIFO_CLIENTS_PER_NODE,
                            seed=SEED, batching=BATCHING_MODES[mode],
                            config=ClusterConfig(num_nodes=NUM_NODES,
                                                 seed=SEED,
                                                 cost_model=COST_MODEL))
    return runner.run()


@pytest.mark.benchmark(group="sharding")
def test_throughput_scales_with_shard_count(benchmark):
    def experiment():
        sweep = {shards: run_shard_cell(shards) for shards in SHARD_COUNTS}
        combined = run_shard_cell(4, batching=BATCHING_MODES["group-commit"])
        return sweep, combined

    sweep, combined = run_once(benchmark, experiment)

    throughput = {shards: report.throughput for shards, report in sweep.items()}
    # Breaking the single-sequencer ceiling: monotonically higher throughput
    # all the way from one group to four.
    assert throughput[1] < throughput[2] < throughput[4], throughput
    assert throughput[4] > 1.1 * throughput[1], throughput
    # Each cell really ran on its own set of groups/sequencers.
    for shards, report in sweep.items():
        assert report.num_shards == shards
        if shards > 1:
            seats = report.rts_summary["sharding"]["sequencer_nodes"]
            assert len(set(seats)) == min(shards, NUM_NODES)
        expected = report.num_clients * SHARD_SPEC.total_ops_per_client
        assert report.total_ops == expected
    # Sharding and batching compose.
    assert combined.throughput > throughput[1], (combined.throughput, throughput)

    # Determinism: re-running a cell reproduces its report exactly.
    repeat = run_shard_cell(4)
    assert repeat.fingerprint() == sweep[4].fingerprint()

    rows = []
    for shards, report in sorted(sweep.items()):
        p50, p95, p99, mean = format_latency_row(report.request_latency["overall"])
        rows.append([str(shards), f"{report.throughput:.0f}", p50, p95, p99, mean])
    p50, p95, p99, mean = format_latency_row(combined.request_latency["overall"])
    rows.append(["4+batch", f"{combined.throughput:.0f}", p50, p95, p99, mean])
    benchmark.extra_info["throughput_by_shards"] = {
        str(s): round(t, 3) for s, t in throughput.items()
    }
    benchmark.extra_info["cells"] = {f"shards={s}": r.fingerprint() for s, r in sweep.items()}
    print()
    print(format_table(
        ["shards", "ops/s", "p50 ms", "p95 ms", "p99 ms", "mean ms"],
        rows,
        title=f"Counter-farm writes vs. shard count ({NUM_NODES} nodes, "
              f"{SHARD_CLIENTS_PER_NODE} clients/node, seed {SEED})"))


@pytest.mark.benchmark(group="sharding")
def test_batched_writes_beat_unbatched_p99_on_fifo_queue(benchmark):
    def experiment():
        return {mode: run_fifo_cell(mode) for mode in BATCHING_MODES}

    reports = run_once(benchmark, experiment)

    p99 = {mode: r.percentile_row()["p99"] for mode, r in reports.items()}
    # The batched write path must beat unbatched tail latency on the
    # broadcast-heaviest scenario, without giving up throughput.
    assert p99["group-commit"] < p99["unbatched"], p99
    assert p99["windowed"] < p99["unbatched"], p99
    assert reports["group-commit"].throughput >= reports["unbatched"].throughput

    # Batches actually formed (shard stats flow through the report).
    for mode in ("group-commit", "windowed"):
        sharding = reports[mode].rts_summary["sharding"]
        stats = sharding["per_shard"][0]
        assert stats["batches"] > 0
        assert stats["max_batch"] > 1
    # Queue conservation held in every mode.
    for report in reports.values():
        facts = report.scenario_facts
        assert facts["enqueued"] - facts["dequeued"] == facts["backlog"]

    rows = []
    for mode, report in reports.items():
        p50, p95, p99s, mean = format_latency_row(report.request_latency["overall"])
        sharding = report.rts_summary.get("sharding")
        mean_batch = (sharding["per_shard"][0]["mean_batch"] if sharding else 1.0)
        rows.append([mode, f"{report.throughput:.0f}", p50, p95, p99s, mean, f"{mean_batch:.2f}"])
    benchmark.extra_info["p99_by_mode"] = {m: round(v, 6) for m, v in p99.items()}
    benchmark.extra_info["cells"] = {m: r.fingerprint() for m, r in reports.items()}
    print()
    print(format_table(
        ["batching", "ops/s", "p50 ms", "p95 ms", "p99 ms", "mean ms", "avg batch"],
        rows,
        title=f"FIFO queue: batched vs. unbatched writes ({NUM_NODES} nodes, "
              f"{FIFO_CLIENTS_PER_NODE} clients/node, seed {SEED})"))
