"""Integration tests: the workload runner against all four runtimes."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    RUNTIME_KINDS,
    WorkloadRunner,
    WorkloadSpec,
    run_scenario_matrix,
)

SMALL = WorkloadSpec(name="small", num_keys=4, read_fraction=0.75,
                     ops_per_client=12, think_time=0.0002)


def small_runner(scenario="counter-farm", runtime="broadcast", seed=11,
                 workload=SMALL, **kwargs):
    return WorkloadRunner(scenario, workload=workload, runtime=runtime,
                          num_nodes=3, clients_per_node=1, seed=seed, **kwargs)


class TestRunnerBasics:
    def test_rejects_unknown_runtime(self):
        with pytest.raises(ConfigurationError):
            WorkloadRunner("counter-farm", runtime="quantum")

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            WorkloadRunner("no-such-scenario")

    @pytest.mark.parametrize("runtime", RUNTIME_KINDS)
    def test_runs_on_every_runtime(self, runtime):
        report = small_runner(runtime=runtime).run()
        assert report.total_ops == 3 * SMALL.ops_per_client
        assert report.total_ops == report.reads + report.writes
        assert report.elapsed > 0
        assert report.throughput > 0
        # The scenario's own consistency check ran and produced facts.
        assert report.scenario_facts["counter_total"] == report.writes

    def test_report_identifies_the_configuration(self):
        report = small_runner(runtime="central").run()
        assert report.scenario == "counter-farm"
        assert report.runtime == "central-server-rts"
        assert report.workload == "small"
        assert report.num_nodes == 3
        assert report.num_clients == 3


class TestCounters:
    def test_fingerprint_carries_the_report_counters(self):
        report = small_runner().run()
        counters = report.counters()
        assert counters == {"events": report.events,
                            "wire_bytes": report.network["wire_bytes"]}
        fingerprint = report.fingerprint()
        assert {key: fingerprint[key] for key in counters} == counters
        assert type(report.events) is int and report.events > 0

    def test_counters_repeat_for_the_same_seed(self):
        assert small_runner().run().counters() == small_runner().run().counters()

    def test_more_operations_cost_more_events_and_bytes(self):
        short = small_runner().run().counters()
        longer = small_runner(workload=SMALL.with_overrides(ops_per_client=24)).run().counters()
        assert longer["events"] > short["events"]
        assert longer["wire_bytes"] > short["wire_bytes"]


class TestLatencyCollection:
    def test_request_latency_has_read_write_and_overall(self):
        report = small_runner().run()
        assert set(report.request_latency) >= {"read", "write", "overall"}
        overall = report.request_latency["overall"]
        assert overall["count"] == report.total_ops
        assert 0 <= overall["p50"] <= overall["p95"] <= overall["p99"]

    def test_rts_invocation_latency_is_wired(self):
        """The runtime's own invocation path records into the attached recorder,
        covering exactly the measurement window (counter-farm issues one
        invocation per request; setup and validation are excluded)."""
        report = small_runner(runtime="broadcast").run()
        assert report.rts_latency["overall"]["count"] == report.total_ops
        assert report.rts_latency["write"]["count"] == report.writes
        assert report.rts_latency["read"]["count"] == report.reads

    def test_percentile_row_defaults_to_overall(self):
        report = small_runner().run()
        row = report.percentile_row()
        assert row == {key: report.request_latency["overall"][key]
                       for key in ("p50", "p95", "p99", "mean")}


class TestDeterminism:
    @pytest.mark.parametrize("runtime", RUNTIME_KINDS)
    def test_same_seed_reproduces_report_exactly(self, runtime):
        first = small_runner(runtime=runtime).run()
        second = small_runner(runtime=runtime).run()
        assert first.fingerprint() == second.fingerprint()
        assert first.request_latency == second.request_latency
        assert first.rts_latency == second.rts_latency
        assert first.network == second.network

    def test_different_seed_changes_the_traffic(self):
        first = small_runner(seed=1).run()
        second = small_runner(seed=2).run()
        assert first.fingerprint() != second.fingerprint()


class TestClientModels:
    def test_open_loop_issues_all_requests(self):
        spec = WorkloadSpec(name="open", num_keys=4, read_fraction=0.8,
                            client_model="open", arrival_rate=800.0,
                            ops_per_client=10)
        report = small_runner(workload=spec).run()
        assert report.total_ops == 30

    def test_open_loop_latency_includes_queueing_delay(self):
        """Under overload, intended-arrival accounting inflates latencies."""
        slow = WorkloadSpec(name="slow", num_keys=1, read_fraction=0.0,
                            client_model="open", arrival_rate=200.0,
                            ops_per_client=10)
        fast = slow.with_overrides(name="fast", arrival_rate=100000.0)
        relaxed = small_runner("hot-spot", workload=slow).run()
        swamped = small_runner("hot-spot", workload=fast).run()
        assert (swamped.request_latency["overall"]["p95"]
                > relaxed.request_latency["overall"]["p95"])

    def test_closed_loop_think_time_stretches_the_run(self):
        quick = small_runner(workload=SMALL.with_overrides(think_time=0.0)).run()
        thoughtful = small_runner(
            workload=SMALL.with_overrides(think_time=0.005)).run()
        assert thoughtful.elapsed > quick.elapsed

    def test_arrival_trace_drives_the_request_count(self):
        traced = WorkloadSpec(name="traced", num_keys=4, read_fraction=0.5,
                              client_model="open",
                              arrival_trace=((0.01, 1000.0), (0.01, 3000.0)))
        report = small_runner(workload=traced).run()
        # ~3 clients x ~(10 + 30) arrivals; exact count is seed-determined.
        assert 60 <= report.total_ops <= 180
        repeat = small_runner(workload=traced).run()
        assert repeat.fingerprint() == report.fingerprint()

    def test_hotspot_shift_scenario_moves_between_shards(self):
        report = WorkloadRunner("hotspot-shift", runtime="broadcast",
                                num_nodes=4, clients_per_node=1, seed=11,
                                num_shards=4).run()
        assert report.scenario_facts["counter_total"] == report.writes
        # The per-phase hotspot landed writes on several groups.
        per_shard = report.rts_summary["sharding"]["per_shard"]
        busy = [s for s, stats in per_shard.items() if stats["writes"] > 0]
        assert len(busy) >= 3


class TestMatrixAndHarness:
    def test_matrix_covers_all_combinations(self):
        reports = run_scenario_matrix(
            ["hot-spot", "kv-table"], ["broadcast", "central"],
            workload=SMALL, num_nodes=3, seed=5)
        assert len(reports) == 4
        assert {(r.scenario, r.runtime) for r in reports} == {
            ("hot-spot", "broadcast-rts"), ("hot-spot", "central-server-rts"),
            ("kv-table", "broadcast-rts"), ("kv-table", "central-server-rts"),
        }


class TestCrossRuntimeConsistency:
    def test_all_runtimes_agree_on_final_state(self):
        """Same seed -> same request streams -> identical shared-object facts."""
        facts = [small_runner(runtime=runtime).run().scenario_facts
                 for runtime in RUNTIME_KINDS]
        assert all(f == facts[0] for f in facts)

    def test_fifo_queue_conserves_items_everywhere(self):
        spec = WorkloadSpec(name="q", read_fraction=0.5, ops_per_client=10,
                            think_time=0.0002)
        for runtime in RUNTIME_KINDS:
            report = small_runner("fifo-queue", workload=spec,
                                  runtime=runtime).run()
            facts = report.scenario_facts
            assert facts["enqueued"] - facts["dequeued"] == facts["backlog"]


class TestTransactionalScenarios:
    """The PR 8 scenario kinds: atomic on a transactional runtime, degraded
    (but still conserving / self-consistent) everywhere else."""

    def test_bank_transfer_is_atomic_on_broadcast(self):
        spec = WorkloadSpec(name="bank", num_keys=4, read_fraction=0.5,
                            ops_per_client=12, think_time=0.0002)
        report = small_runner("bank-transfer", workload=spec,
                              runtime="broadcast", num_shards=2).run()
        facts = report.scenario_facts
        assert facts["transactional"] is True
        assert facts["bank_total"] == 4 * 100
        assert facts["transfers_committed"] + facts["transfers_aborted"] == report.writes
        # Commit counters surface through the summary and the fingerprint.
        transactions = report.rts_summary["transactions"]
        assert transactions["commits"] == facts["transfers_committed"]
        assert report.fingerprint()["transactions"]["commits"] == transactions["commits"]

    def test_bank_transfer_falls_back_on_non_transactional_runtimes(self):
        spec = WorkloadSpec(name="bank", num_keys=4, read_fraction=0.5,
                            ops_per_client=12, think_time=0.0002)
        report = small_runner("bank-transfer", workload=spec,
                              runtime="central").run()
        facts = report.scenario_facts
        assert facts["transactional"] is False
        assert facts["bank_total"] == 4 * 100
        # No transaction ever ran, so the summary carries no block and the
        # fingerprint stays shaped exactly like a pre-transaction report.
        assert "transactions" not in report.rts_summary
        assert "transactions" not in report.fingerprint()

    def test_kv_index_mirror_stays_consistent(self):
        spec = WorkloadSpec(name="kv", num_keys=6, read_fraction=0.4,
                            ops_per_client=12, think_time=0.0002)
        report = small_runner("kv-index", workload=spec,
                              runtime="broadcast", num_shards=2).run()
        facts = report.scenario_facts
        assert facts["transactional"] is True
        assert facts["index_mismatches"] == 0

    def test_queue_move_accounts_for_every_item(self):
        spec = WorkloadSpec(name="qm", num_keys=2, read_fraction=0.25,
                            ops_per_client=16, think_time=0.0002)
        for runtime in ("broadcast", "central"):
            report = small_runner("queue-move", workload=spec,
                                  runtime=runtime, seed=13).run()
            facts = report.scenario_facts
            assert facts["inbox_backlog"] == facts["produced"] - facts["moves"]
            assert facts["outbox_backlog"] == facts["moves"]
