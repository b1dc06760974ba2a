"""Tests for the oracle: stream replay determinism and checker rigour.

A convergence checker that cannot fail is worthless, so half of these tests
tamper with a (synthetic) collected state — a lost write, a duplicated
write, reordered client writes, diverged replicas — and require
:func:`check_convergence` to reject each corruption.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from repro.net.harness import RealClusterConfig
from repro.net.oracle import (check_convergence, expected_issued_writes,
                              record_sim_oracle)
from repro.sim import Simulator
from repro.workloads.scenarios import PrimaryChurn, ScenarioRegistry
from repro.workloads.spec import PhaseSpec, WorkloadSpec, client_schedule, client_stream


def config(**overrides):
    fields = dict(scenario="counter-farm", num_nodes=3, num_shards=2,
                  clients_per_node=1, seed=13)
    fields.update(overrides)
    return RealClusterConfig(**fields)


def synthetic_result(expected, cfg):
    """Build the collected state of a perfectly converged run."""
    table = cfg.build_object_table()
    objects = {}
    for row in table:
        name = row["name"]
        log = []
        for client, issued in sorted(expected["per_client_writes"].items()):
            for cseq, (obj_name, op) in enumerate(issued, start=1):
                if obj_name == name:
                    log.append([client[0], client[1], cseq, op])
        objects[str(row["obj_id"])] = {
            "name": name,
            "policy": row["policy"],
            "shard": row["shard"],
            "primary": row["primary"],
            "version": len(log),
            "state": expected["final_states"][name],
            "applied_log": log,
        }
    nodes = {node: {"objects": copy.deepcopy(objects), "stats": {}}
             for node in cfg.survivor_nodes}
    return {
        "scenario": cfg.scenario,
        "reads": expected["reads"],
        "writes": expected["writes"],
        "killed": [],
        "nodes": nodes,
    }


class TestStreamReplay:
    def test_replay_is_deterministic(self):
        cfg = config()
        first = expected_issued_writes(cfg)
        second = expected_issued_writes(cfg)
        assert first["per_client_writes"] == second["per_client_writes"]
        assert first["final_states"] == second["final_states"]

    def test_seed_changes_the_streams(self):
        a = expected_issued_writes(config(seed=13))
        b = expected_issued_writes(config(seed=14))
        assert a["per_client_writes"] != b["per_client_writes"]

    def test_counter_totals_add_up(self):
        expected = expected_issued_writes(config())
        total = sum(state["value"]
                    for state in expected["final_states"].values())
        assert total == expected["writes"]

    def test_victims_host_no_clients(self):
        cfg = config(num_nodes=4, victims=(3,), kill_after=(30,))
        expected = expected_issued_writes(cfg)
        client_nodes = {client[0]
                        for client in expected["per_client_writes"]}
        assert 3 not in client_nodes

    def test_churn_victims_match_the_sim(self):
        assert PrimaryChurn.victims_for(4) == (3, 2)
        assert PrimaryChurn.victims_for(3) == (2,)
        assert PrimaryChurn.victims_for(2) == ()

    @pytest.mark.parametrize("scenario", ["counter-farm", "multi-tenant-noisy-neighbour"])
    def test_a_plan_seed_draws_its_simulated_twins_requests(self, scenario):
        """A node builds ``random.Random(seed)`` from its plan's seed; the
        simulator draws from its registry's stream of the same name.  The
        first 100 draws of every client agree, pacing draws included."""
        spec = ScenarioRegistry.get(scenario).default_spec().with_overrides(
            ops_per_client=100)
        cfg = config(scenario=scenario, workload=spec, clients_per_node=2, seed=21)
        plan = pickle.loads(pickle.dumps(cfg.plan(0, "", [])))
        sim = Simulator(seed=cfg.seed)
        try:
            assert sorted(plan.client_seeds) == cfg.client_nodes
            for node_id, seeds in plan.client_seeds.items():
                assert len(seeds) == 2
                for client_id, seed in enumerate(seeds):
                    twin = sim.rng.stream(client_stream(node_id, client_id))
                    drawn = list(itertools.islice(
                        client_schedule(spec, random.Random(seed)), 100))
                    assert len(drawn) == 100
                    assert drawn == list(itertools.islice(client_schedule(spec, twin), 100))
        finally:
            sim.shutdown()

    def test_a_hybrid_client_replays_its_simulated_twin(self):
        """Pacing is per phase: an open-loop spec's closed phase draws no
        arrival gap in the replay either."""
        spec = WorkloadSpec(
            name="counter-farm", client_model="open",
            phases=(PhaseSpec(ops_per_client=50),
                    PhaseSpec(ops_per_client=50, client_model="closed",
                              think_time=0.0)))
        cfg = config(workload=spec, seed=7)
        expected = expected_issued_writes(cfg)
        sim = record_sim_oracle(cfg)
        simulated = {name: count for name, count
                     in sim["per_object_writes"].items() if count}
        assert expected["per_object_writes"] == simulated
        assert expected["writes"] == sim["writes"]


class TestChecker:
    def setup_method(self):
        self.cfg = config()
        self.expected = expected_issued_writes(self.cfg)
        self.result = synthetic_result(self.expected, self.cfg)

    def first_written_object(self):
        node = sorted(self.result["nodes"])[0]
        objects = self.result["nodes"][node]["objects"]
        for obj_id in sorted(objects, key=int):
            if objects[obj_id]["applied_log"]:
                return node, obj_id
        raise RuntimeError("no object saw writes")

    def test_accepts_a_converged_run(self):
        facts = check_convergence(self.result, self.expected)
        assert facts["counter_total"] == self.expected["writes"]

    def test_rejects_diverged_replica(self):
        node, obj_id = self.first_written_object()
        state = self.result["nodes"][node]["objects"][obj_id]["state"]
        state["value"] += 1
        with pytest.raises(AssertionError, match="disagree|converged"):
            check_convergence(self.result, self.expected)

    def test_rejects_a_lost_write(self):
        # Drop the same tail write from every replica: agreement still
        # holds, so only the exactly-once/state checks can catch it.
        _, obj_id = self.first_written_object()
        for reply in self.result["nodes"].values():
            row = reply["objects"][obj_id]
            row["applied_log"] = row["applied_log"][:-1]
            row["version"] = max(0, row["version"] - 1)
        with pytest.raises(AssertionError):
            check_convergence(self.result, self.expected)

    def test_rejects_a_duplicated_write(self):
        _, obj_id = self.first_written_object()
        for reply in self.result["nodes"].values():
            row = reply["objects"][obj_id]
            row["applied_log"] = row["applied_log"] + [row["applied_log"][-1]]
        with pytest.raises(AssertionError, match="order|twice"):
            check_convergence(self.result, self.expected)

    def test_rejects_reordered_client_writes(self):
        # Find an object where some client applied two writes; swap them.
        for reply in self.result["nodes"].values():
            for row in reply["objects"].values():
                log = row["applied_log"]
                by_client = {}
                for index, entry in enumerate(log):
                    by_client.setdefault(tuple(entry[:2]), []).append(index)
                pair = next((indices for indices in by_client.values()
                             if len(indices) >= 2), None)
                if pair is not None:
                    i, j = pair[0], pair[1]
                    log[i], log[j] = log[j], log[i]
        with pytest.raises(AssertionError, match="order"):
            check_convergence(self.result, self.expected)

    def test_rejects_missing_requests(self):
        self.result["writes"] -= 1
        with pytest.raises(AssertionError, match="write count"):
            check_convergence(self.result, self.expected)

    def test_rejects_sim_oracle_mismatch(self):
        sim = {
            "writes": self.expected["writes"] + 1,
            "per_object_writes": dict(self.expected["per_object_writes"]),
            "facts": {},
        }
        with pytest.raises(AssertionError, match="oracle mismatch"):
            check_convergence(self.result, self.expected, sim)


COUNTER_KINDS = [kind for kind in ScenarioRegistry.names()
                 if ScenarioRegistry.get(kind).writes_commute]


@pytest.mark.parametrize("kind", COUNTER_KINDS)
def test_every_counter_kind_checks_exact_final_states(kind):
    """Replicas that agree on a wrong counter value are caught for every
    kind whose writes commute, not only for a hand-kept list of them."""
    cfg = config(scenario=kind)
    expected = expected_issued_writes(cfg)
    result = synthetic_result(expected, cfg)
    check_convergence(result, expected)
    for reply in result["nodes"].values():
        for row in reply["objects"].values():
            row["state"]["value"] += 1
    with pytest.raises(AssertionError, match="converged to"):
        check_convergence(result, expected)


@pytest.mark.parametrize("kind", COUNTER_KINDS)
def test_every_counter_kind_checks_the_simulator_total(kind):
    """The converged total is held against the simulator's under the facts
    key the kind reports it by (``hot-spot`` calls it ``cell_value``)."""
    cfg = config(scenario=kind)
    expected = expected_issued_writes(cfg)
    result = synthetic_result(expected, cfg)
    total_key = ScenarioRegistry.get(kind).total_key
    sim = {"writes": expected["writes"],
           "per_object_writes": dict(expected["per_object_writes"]),
           "facts": {total_key: expected["writes"]}}
    assert check_convergence(result, expected, sim)[total_key] == expected["writes"]
    sim["facts"][total_key] += 1
    with pytest.raises(AssertionError, match="simulator's"):
        check_convergence(result, expected, sim)


class TestSetupWritingScenariosRejected:
    def test_preloaded_catalog_is_rejected(self):
        from repro.errors import ConfigurationError

        cfg = config(scenario="read-mostly-catalog")
        with pytest.raises(ConfigurationError, match="creation arguments"):
            cfg.build_object_table()
