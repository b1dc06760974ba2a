"""Multi-process convergence tests: the tentpole's acceptance matrix.

Each test spawns one OS process per node (``repro.net.node_process``), runs
a scenario over real UDP sockets on loopback, waits for quiescence, and
checks the converged state against the deterministic stream replay — and,
where marked, against a full simulator run of the identical workload.  The
kill test SIGKILLs the primary-hosting victims mid-workload and requires
the takeover protocol to finish the run with exactly-once semantics intact.
"""

from __future__ import annotations

import pytest

from repro.net.runner import run_real_workload
from repro.net.runtime import RealTimings
from repro.workloads.scenarios import PrimaryChurn, ScenarioRegistry

#: CI-friendly timers: fast retry/sync cycles, but a failure detector slow
#: enough that a briefly descheduled child is not declared dead under load.
CI_TIMINGS = RealTimings(heartbeat_interval=0.05, dead_after=0.5,
                         retry_interval=0.05, sync_interval=0.05,
                         gap_delay=0.03, submit_deadline=60.0)


def small_spec(scenario: str, ops: int = 30):
    return ScenarioRegistry.get(scenario).default_spec().with_overrides(
        ops_per_client=ops)


class TestConvergenceMatrix:
    """Three scenario kinds x two seeds, checked against the stream replay
    (itself cross-checked against the simulator in ``test_sim_oracle``)."""

    @pytest.mark.parametrize("scenario,seed", [
        ("counter-farm", 1), ("counter-farm", 2),
        ("fifo-queue", 7), ("fifo-queue", 8),
        ("hotspot-shift", 3), ("hotspot-shift", 4),
    ])
    def test_converges(self, scenario, seed):
        report = run_real_workload(
            scenario=scenario, workload=small_spec(scenario),
            num_nodes=3, num_shards=2, seed=seed, timings=CI_TIMINGS)
        assert report.runtime == "real-sockets"
        if scenario == "hotspot-shift":
            # Trace-driven: the request count falls out of the arrival
            # trace (and run_real_workload already checked it against the
            # stream replay), not out of ops_per_client.
            assert report.total_ops > 0
        else:
            assert report.total_ops == 3 * 30
        assert report.elapsed > 0.0
        assert report.throughput > 0.0
        # Nobody died, so no member ever gave up on its seat.
        assert report.rts_summary["stats"]["elections"] == 0

    def test_sim_oracle_cross_check(self):
        # One full sim-vs-real comparison: the simulator runs the identical
        # workload and its per-object write counts and scenario facts must
        # match the real run's converged state.
        report = run_real_workload(
            scenario="counter-farm", workload=small_spec("counter-farm"),
            num_nodes=3, num_shards=2, seed=5, timings=CI_TIMINGS,
            sim_oracle=True)
        assert report.scenario_facts["counter_total"] >= 0

    def test_multiple_clients_per_node(self):
        report = run_real_workload(
            scenario="counter-farm", workload=small_spec("counter-farm", 15),
            num_nodes=3, num_shards=2, clients_per_node=2, seed=9,
            timings=CI_TIMINGS)
        assert report.num_clients == 6
        assert report.total_ops == 6 * 15
        # Real sockets have no simulator, so there is no event count to report.
        assert report.events is None
        assert report.rts_summary["stats"]["elections"] == 0


class TestPrimaryTakeover:
    def test_kill_mid_workload_converges(self):
        # Kill the (victim-parked) primaries mid-run: writes through the
        # dead primaries must block until takeover and then commit, and the
        # survivors must still agree with the simulator's crash run.
        num_nodes = 4
        victims = PrimaryChurn.victims_for(num_nodes)
        spec = small_spec("primary-churn", 120)
        report = run_real_workload(
            scenario="primary-churn", workload=spec, num_nodes=num_nodes,
            num_shards=2, seed=11, victims=victims,
            kill_after=tuple(30 + 30 * i for i in range(len(victims))),
            timings=CI_TIMINGS, sim_oracle=True)
        facts = report.scenario_facts
        assert facts["killed"] == sorted(victims)
        assert facts["takeovers"] > 0
        # Two survivors, 120 writes-or-reads each, none lost or duplicated.
        assert report.total_ops == 2 * 120
        assert facts["counter_total"] == report.writes
