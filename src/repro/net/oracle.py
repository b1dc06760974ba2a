"""The simulator as the real backend's deterministic oracle.

Both backends drive their clients from the *same* named rng streams
(``workload.client.<node>.<client>`` under the run's seed), so the sequence
of requests every client issues — keys, read/write mix, operation mapping —
is byte-identical across backends.  That identity is what makes convergence
checkable:

* :func:`record_sim_oracle` runs the identical workload on the simulator and
  keeps the per-object write counts and the scenario's validated facts;
* :func:`expected_issued_writes` replays the request streams through the
  scenario's own ``perform`` against in-memory objects, recording each
  client's ordered write list (the ``cseq`` ground truth) and, for
  commutative scenarios, the exact expected final states;
* :func:`check_convergence` asserts the real run's collected states form an
  *equivalent serializable state*: every surviving replica identical, every
  issued write applied exactly once, each client's writes applied in issue
  order, and the scenario's own invariants (counter totals, queue
  conservation) holding against both the stream replay and the simulator's
  facts.

Timing-dependent quantities (a queue's backlog, which poll got which item)
legitimately differ between backends; the checks here are exactly the
order-insensitive ones both must agree on.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Optional, Tuple

from ..sim.rng import RngRegistry
from ..workloads.scenarios import ScenarioRegistry
from ..workloads.spec import client_schedule, client_stream
from .harness import RealClusterConfig
from .rts_adapter import ClientProc, RecordingRts
from .wire import jsonify

# ---------------------------------------------------------------------- #
# Recording the simulator's side
# ---------------------------------------------------------------------- #


def record_sim_oracle(config: RealClusterConfig,
                      runtime: str = "broadcast") -> Dict[str, Any]:
    """Run the identical workload on the simulator; keep what must match.

    For kill runs the caller uses the ``primary-churn`` scenario, whose
    simulated victims are the highest-numbered nodes — the same nodes a
    :class:`RealClusterConfig` kill schedule must name — so both backends
    crash the same machines under the same client set.
    """
    from ..workloads.runner import WorkloadRunner

    report = WorkloadRunner(
        scenario=config.scenario,
        workload=config.spec,
        runtime=runtime,
        num_nodes=config.num_nodes,
        clients_per_node=config.clients_per_node,
        seed=config.seed,
        num_shards=config.num_shards,
    ).run()
    return {
        "facts": dict(report.scenario_facts),
        "per_object_writes": {name: row["writes"]
                              for name, row in report.object_rows().items()},
        "reads": report.reads,
        "writes": report.writes,
        "total_ops": report.total_ops,
        "elapsed": report.elapsed,
        "throughput": report.throughput,
        "fingerprint": report.fingerprint(),
    }


# ---------------------------------------------------------------------- #
# Replaying the request streams (backend-independent ground truth)
# ---------------------------------------------------------------------- #


def expected_issued_writes(config: RealClusterConfig) -> Dict[str, Any]:
    """Replay every client's stream; return the backend-independent truth."""
    scenario = ScenarioRegistry.create(config.scenario, config.spec)
    probe = RecordingRts()
    scenario.setup(probe, None)
    spec = config.spec
    reads = writes = 0
    registry = RngRegistry(config.seed)
    for node_id in config.client_nodes:
        for client_id in range(config.clients_per_node):
            rng = registry.stream(client_stream(node_id, client_id))
            proc = ClientProc(node_id, client_id)
            for request, _pacing, _value in client_schedule(spec, rng):
                scenario.perform(probe, proc, request)
                writes += request.is_write
                reads += not request.is_write
    per_object = Counter(name
                         for issued in probe.client_writes.values()
                         for name, _op in issued)
    return {
        "reads": reads,
        "writes": writes,
        "per_client_writes": probe.client_writes,
        "per_object_writes": dict(per_object),
        "put_values": Counter(probe.put_values),
        "final_states": {row["name"]: jsonify(probe.instances[row["obj_id"]].marshal_state())
                         for row in probe.rows},
    }


# ---------------------------------------------------------------------- #
# The convergence check
# ---------------------------------------------------------------------- #


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"convergence violation: {message}")


def check_convergence(result: Dict[str, Any], expected: Dict[str, Any],
                      sim_oracle: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assert a real run converged to a state equivalent to the oracle's.

    ``result`` is :meth:`RealCluster.run_workload`'s return value,
    ``expected`` comes from :func:`expected_issued_writes`, and
    ``sim_oracle`` (optional) from :func:`record_sim_oracle`.  Raises
    :class:`AssertionError` on the first violation; returns a facts digest.
    """
    nodes = result["nodes"]
    _require(bool(nodes), "no surviving node reported state")
    node_ids = sorted(nodes)
    reference = nodes[node_ids[0]]["objects"]

    # 1. Replica agreement: every surviving replica of every object ended
    # with identical state, version, primary seat and applied log.
    for node_id in node_ids[1:]:
        objects = nodes[node_id]["objects"]
        _require(set(objects) == set(reference),
                 f"node {node_id} tracks a different object set")
        for obj_id, row in reference.items():
            other = objects[obj_id]
            for key in ("state", "applied_log", "version", "primary"):
                _require(
                    json.dumps(other[key], sort_keys=True)
                    == json.dumps(row[key], sort_keys=True),
                    f"replicas disagree on {row['name']!r} {key}: node "
                    f"{node_ids[0]} has {row[key]!r}, node {node_id} has "
                    f"{other[key]!r}")

    # Every takeover proposal a node made was sequenced (or ended by stop()).
    for node_id in node_ids:
        failures = nodes[node_id].get("stats", {}).get("takeover_failures", 0)
        _require(failures == 0,
                 f"node {node_id} failed {failures} takeover proposal(s)")

    # 2. Request accounting: the real clients issued exactly the streams'
    # requests (every client ran to completion).
    _require(result["reads"] == expected["reads"],
             f"read count {result['reads']} != issued {expected['reads']}")
    _require(result["writes"] == expected["writes"],
             f"write count {result['writes']} != issued {expected['writes']}")

    # 3. Exactly-once + per-client FIFO, from the (agreed) applied logs:
    # each client's cseqs must appear exactly once across all objects, in
    # issue order per object, and name the operation the stream issued.
    applied: Dict[Tuple[int, int], Dict[int, Tuple[str, str]]] = {}
    for row in reference.values():
        per_client_last: Dict[Tuple[int, int], int] = {}
        for node, client_id, cseq, op in row["applied_log"]:
            client = (node, client_id)
            _require(per_client_last.get(client, 0) < cseq,
                     f"object {row['name']!r} applied client {client} writes "
                     f"out of issue order (cseq {cseq} after "
                     f"{per_client_last.get(client)})")
            per_client_last[client] = cseq
            seen = applied.setdefault(client, {})
            _require(cseq not in seen,
                     f"client {client} write cseq {cseq} applied twice "
                     f"({seen.get(cseq)} and ({row['name']!r}, {op!r}))")
            seen[cseq] = (row["name"], op)
    expected_clients = {client: issued
                        for client, issued
                        in expected["per_client_writes"].items() if issued}
    _require(set(applied) == set(expected_clients),
             f"applied-write client set {sorted(applied)} != issued "
             f"{sorted(expected_clients)}")
    for client, issued in expected_clients.items():
        seen = applied[client]
        _require(set(seen) == set(range(1, len(issued) + 1)),
                 f"client {client} applied cseqs {sorted(seen)} are not "
                 f"exactly 1..{len(issued)}")
        for cseq, (name, op) in seen.items():
            _require(issued[cseq - 1] == (name, op),
                     f"client {client} cseq {cseq} applied as ({name!r}, "
                     f"{op!r}) but issued {issued[cseq - 1]!r}")

    # 4. Scenario invariants on the converged state.
    facts: Dict[str, Any] = {"objects": len(reference),
                             "clients": len(expected_clients)}
    scenario = result["scenario"]
    kind = ScenarioRegistry.get(scenario)
    per_object_writes = expected["per_object_writes"]
    if kind.writes_commute:
        for row in reference.values():
            want = expected["final_states"].get(row["name"])
            _require(
                json.dumps(row["state"], sort_keys=True)
                == json.dumps(want, sort_keys=True),
                f"object {row['name']!r} converged to {row['state']!r}, "
                f"expected {want!r}")
        facts[kind.total_key] = sum(row["state"].get("value", 0)
                                    for row in reference.values())
    elif scenario == "fifo-queue":
        row = next(iter(reference.values()))
        state = row["state"]
        # Every write *operation* on the queue is a put or a poll (polls
        # ride read requests but mutate), so the op-level total decomposes.
        _require(state["enqueued"] + state["dequeued"] + state["empty_polls"]
                 == per_object_writes.get(row["name"], 0),
                 f"queue write accounting is inconsistent: "
                 f"{state['enqueued']} + {state['dequeued']} + "
                 f"{state['empty_polls']} != "
                 f"{per_object_writes.get(row['name'], 0)} write ops")
        puts = sum(expected["put_values"].values())
        _require(state["enqueued"] == puts,
                 f"queue enqueued {state['enqueued']} != issued puts {puts}")
        _require(state["enqueued"] - state["dequeued"]
                 == len(state["items"]),
                 f"queue conservation broken: {state['enqueued']} enqueued, "
                 f"{state['dequeued']} dequeued, {len(state['items'])} left")
        backlog = Counter(state["items"])
        _require(not backlog - expected["put_values"],
                 "queue holds items no client ever put")
        facts["backlog"] = len(state["items"])
        facts["enqueued"] = state["enqueued"]

    # 5. Against the simulator's run of the identical workload.
    if sim_oracle is not None:
        _require(sim_oracle["writes"] == expected["writes"],
                 f"simulator issued {sim_oracle['writes']} writes, stream "
                 f"replay issued {expected['writes']} — oracle mismatch")
        # The sim summary omits objects that saw no traffic; compare the
        # non-zero counts.
        sim_writes = {name: count for name, count
                      in sim_oracle["per_object_writes"].items() if count}
        real_writes = {name: count for name, count
                       in per_object_writes.items() if count}
        _require(sim_writes == real_writes,
                 f"per-object write counts diverge from the simulator: "
                 f"{sim_writes} != {real_writes}")
        if kind.writes_commute and kind.total_key in sim_oracle["facts"]:
            total, sim_total = facts[kind.total_key], sim_oracle["facts"][kind.total_key]
            _require(total == sim_total,
                     f"{kind.total_key} {total} != simulator's {sim_total}")
        sim_enqueued = sim_oracle["facts"].get("enqueued")
        if sim_enqueued is not None and "enqueued" in facts:
            _require(facts["enqueued"] == sim_enqueued,
                     f"queue enqueued {facts['enqueued']} != "
                     f"simulator's {sim_enqueued}")
    if result.get("killed"):
        facts["killed"] = list(result["killed"])
        takeovers = sum(reply.get("stats", {}).get("takeovers", 0)
                        for reply in nodes.values())
        facts["takeovers"] = takeovers
    return facts
