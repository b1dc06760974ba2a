"""Tests of the host-clock benchmark harness itself.

Run with ``python -m pytest benchmarks/perf -q``.  Every workload runs here at
1/50 size, so the numbers mean nothing; what is checked is that the harness
measures, names, counts failures and attributes the way it says it does.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from summary import load_declaration, metric_table, summarize  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from repro.workloads import WorkloadSpec  # noqa: E402
from repro.workloads.spec import Request  # noqa: E402
from repro.workloads.scenarios import CounterFarm, ScenarioRegistry  # noqa: E402

DECLARATION = load_declaration()
END_TO_END = {m["name"] for m in DECLARATION["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARATION["per_layer"]}
CPU = max(os.sched_getaffinity(0))
TINY = 0.02


def measure(workload: str, seed: int = 42, trace: bool = False, scale: float = TINY):
    request = {
        "workload": workload,
        "seed": seed,
        "seconds": 0.0,
        "scale": scale,
        "trace": trace,
        "cpu": CPU,
        "trace_out": None,
    }
    return worker.measure(request)


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload at 1/50 size under seeds 42 and 7, untraced."""
    return {(name, seed): measure(name, seed) for name in WORKLOADS for seed in (42, 7)}


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in DECLARATION["workloads"]] == list(WORKLOADS)
    for declared in DECLARATION["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_correctly_under_two_seeds(tiny_runs, name):
    for seed in (42, 7):
        measured = tiny_runs[name, seed]
        assert measured["failed"] == 0, measured["errors"]
        assert measured["errors"] == []
        assert measured["attempted"] == 3 * measured["ops_per_repeat"] > 0
        assert len(set(measured["digests"])) == 1
        for metric in END_TO_END:
            assert measured["samples"][metric], metric
            assert all(value > 0 for value in measured["samples"][metric]), metric
    if WORKLOADS[name].backend == "sim":
        assert tiny_runs[name, 42]["digests"] != tiny_runs[name, 7]["digests"]


def test_emitted_metric_names_are_the_declared_ones(tiny_runs):
    emitted = set()
    for measured in tiny_runs.values():
        assert END_TO_END <= set(measured["samples"])
        emitted |= set(measured["samples"])
    for name in ("txn-bank-transfer", "real-udp-mix"):
        emitted |= set(measure(name, trace=True)["samples"])
    assert emitted == END_TO_END | PER_LAYER


def test_layers_are_silent_off_their_own_workloads(tiny_runs):
    for (name, _seed), measured in tiny_runs.items():
        samples = measured["samples"]
        if WORKLOADS[name].backend != "sim":
            continue
        assert (samples["txn.commits"][0] > 0) == (name == "txn-bank-transfer")
        assert (samples["gateway.sessions"][0] > 0) == (name == "gateway-fleet")
        assert samples["gateway.shed"][0] == 0


def test_model_values_and_counts_repeat_exactly(tiny_runs):
    again = measure("primary-rpc-mix")
    first = tiny_runs["primary-rpc-mix", 42]
    assert again["digests"] == first["digests"]
    for name, values in first["samples"].items():
        if name.startswith(("model.", "amoeba.", "sim.", "rts.")):
            assert set(values) == set(again["samples"][name]) and len(set(values)) == 1, name


class _BrokenValidate(CounterFarm):
    """A counter farm whose post-run check always finds a lost update."""

    def validate(self, rts, proc, totals):
        raise AssertionError("deliberately broken validation")


def test_broken_validation_is_counted_as_failed_ops(monkeypatch):
    if "perf-broken-validate" not in ScenarioRegistry.names():
        ScenarioRegistry.register("perf-broken-validate", _BrokenValidate)
    broken = Workload(
        name="broken",
        why="a validation that asserts",
        scenario="perf-broken-validate",
        spec=WorkloadSpec(name="broken", ops_per_client=20),
        num_nodes=2,
    )
    monkeypatch.setitem(worker.WORKLOADS, "broken", broken)
    measured = measure("broken", scale=1.0)
    assert measured["attempted"] == 3 * 2 * 2 * 20
    assert measured["failed"] == measured["attempted"]
    assert any("deliberately broken" in error for error in measured["errors"])
    assert measured["samples"]["ops_per_s"] == []


class _StubRts:
    def invoke(self, proc, handle, op_name, args=()):
        return op_name


@pytest.mark.parametrize("scenario_class", [CounterFarm, _BrokenValidate])
def test_first_perform_hook_removes_itself(scenario_class):
    """Also for a class that inherits ``perform`` and has none of its own to put back."""
    own = scenario_class.__dict__.get("perform")
    seen = []
    scenario = scenario_class(WorkloadSpec(num_keys=1))
    scenario.handles = ["counter"]
    request = Request(seq=0, key=0, is_write=False, phase=0)
    with worker.first_perform(scenario_class, lambda: seen.append(1)):
        assert scenario_class.__dict__["perform"] is not own
        assert scenario.perform(_StubRts(), None, request) == "read"
        assert seen == [1]
        assert scenario_class.__dict__.get("perform") is own
        scenario.perform(_StubRts(), None, request)
    assert seen == [1]
    assert scenario_class.__dict__.get("perform") is own


def test_tracer_restores_every_entry_point():
    from repro.sim.kernel import Simulator
    from repro.sim.process import SimProcess

    before = (Simulator.schedule, SimProcess.hold, CounterFarm.perform)
    tracer = tracing.Tracer()
    tracer.install()
    assert Simulator.schedule is not before[0]
    tracer.uninstall()
    assert (Simulator.schedule, SimProcess.hold, CounterFarm.perform) == before


def test_span_self_times_are_non_negative_and_add_up():
    workload = WORKLOADS["txn-bank-transfer"]
    worker.run_sim(workload, 42, TINY, CPU, None)
    tracer = tracing.Tracer(keep_spans=tracing.KEPT_SPANS)
    result = worker.run_sim(workload, 42, TINY, CPU, tracer)
    assert result["failed"] == 0, result["error"]
    assert tracer.total_spans > 0 and tracer.requests == result["attempted"]
    assert all(self_ns >= 0 for _calls, self_ns, _children in tracer.totals)
    span_cost = tracing.calibrate(2000)
    # What the program would have used if a span cost twice the calibrated cost ...
    _layers, twice_ns = tracer.attribute((2 * span_cost[0], 2 * span_cost[1]))
    for untraced_cpu_ns in (None, twice_ns):
        layers, program_ns = tracer.attribute(span_cost, untraced_cpu_ns)
        assert all(self_ns >= 0 for self_ns in layers.values())
        untraced_cpu_s = None if untraced_cpu_ns is None else untraced_cpu_ns / 1e9
        metrics = worker.traced_metrics(tracer, result["attempted"], span_cost, untraced_cpu_s)
        shares = sum(layers[layer] for layer in tracing.LAYERS) / program_ns
        assert 0 <= metrics["trace.unattributed_share"] < 0.5
        assert shares + metrics["trace.unattributed_share"] == pytest.approx(1.0, abs=0.01)
    # ... is what the scaling arrives at when told the untraced run used that much.
    assert program_ns == pytest.approx(twice_ns, rel=0.001)
    assert metrics["txn.self_us_per_op"] > 0
    assert metrics["gateway.self_us_per_op"] == 0
    # Every kept span names its parent on the same thread, and requests are
    # shared down the stack.
    by_id = {span[5]: span for span in tracer.spans}
    for _kind, thread, _start, _end, _self, _span_id, parent_id, request in tracer.spans:
        if parent_id:
            assert by_id[parent_id][1] == thread
            assert by_id[parent_id][7] in (0, request)


def test_chrome_trace_is_written_once_after_the_run(tmp_path):
    tracer = tracing.Tracer(keep_spans=1000)
    worker.run_sim(WORKLOADS["local-read-mostly"], 42, TINY, CPU, tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    document = json.loads(path.read_text())
    assert len(document["traceEvents"]) == len(tracer.spans) == 1000
    assert document["otherData"]["dropped_spans"] == tracer.total_spans - 1000 > 0
    assert {"name", "cat", "ph", "ts", "dur", "tid", "args"} <= set(document["traceEvents"][0])


def test_perturbation_burns_the_cpu_it_says_and_is_undone():
    from repro.sim.process import SimProcess

    original = SimProcess.__dict__["hold"]
    spec = {"module": "repro.sim.process", "cls": "SimProcess", "method": "hold", "busy_us": 500.0}
    workload = WORKLOADS["local-read-mostly"]
    plain = worker.run_sim(workload, 42, TINY, CPU, None)
    with worker.perturbation(spec) as calls:
        slowed = worker.run_sim(workload, 42, TINY, CPU, None)
    assert SimProcess.__dict__["hold"] is original
    assert slowed["digest"] == plain["digest"]
    assert calls[0] > 0
    burned = calls[0] * 500e-6  # far more than the run itself uses
    assert slowed["total_cpu_s"] - plain["total_cpu_s"] > 0.5 * burned


def _result(median: float, spread: float = 0.02, failed: int = 0) -> dict:
    """A one-workload result file with every end-to-end metric at ``median``."""
    samples = [median * (1 - spread), median, median * (1 + spread)]
    metrics = {
        m["name"]: {"unit": m["unit"], **summarize(samples), "samples": samples}
        for m in DECLARATION["end_to_end"]
    }
    metrics["model.p50_ms"] = {"unit": "ms", **summarize([1.5]), "samples": [1.5]}
    entry = {
        "seed": 42,
        "scale": 1.0,
        "ops_attempted": 1000,
        "ops_failed": failed,
        "digests": ["abc", "abc"],
        "metrics": metrics,
    }
    return {"environment": {"pinned": True}, "workloads": {"local-read-mostly": entry}}


def test_compare_applies_the_declared_bounds(capsys):
    base = _result(100.0)
    assert compare.compare(base, copy.deepcopy(base), DECLARATION) == 0
    assert compare.compare(base, _result(100.0 * 1.05), DECLARATION) == 0
    # Lower-is-better metrics got 40% worse (and ops_per_s 40% better).
    assert compare.compare(base, _result(140.0), DECLARATION) == 1
    assert "REGRESSED" in capsys.readouterr().out
    # Too wide a spread to tell: unresolved, which is not a regression.
    assert compare.compare(base, _result(140.0, spread=0.5), DECLARATION) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_rejects_model_drift_failures_and_unpinned_runs():
    base = _result(100.0)
    drifted = _result(100.0)
    drifted["workloads"]["local-read-mostly"]["metrics"]["model.p50_ms"]["samples"] = [1.6]
    assert compare.compare(base, drifted, DECLARATION) == 1
    assert compare.compare(base, _result(100.0, failed=3), DECLARATION) == 1
    redigested = _result(100.0)
    redigested["workloads"]["local-read-mostly"]["digests"] = ["abd", "abd"]
    assert compare.compare(base, redigested, DECLARATION) == 1
    unpinned = _result(100.0)
    unpinned["environment"]["pinned"] = False
    assert compare.compare(base, unpinned, DECLARATION) == 1


def test_one_command_prints_the_contract_line(tmp_path):
    """The real entry point, in a child so that pinning does not stick to pytest."""
    out = tmp_path / "result.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", "local-read-mostly"]
    command += ["--seed", "7", "--seconds", "0", "--scale", str(TINY), "--trace", "0"]
    command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == END_TO_END
    declared = metric_table(DECLARATION)
    for name, value in line["metrics"].items():
        assert value["unit"] == declared[name]["unit"] and value["value"] > 0
    result = json.loads(out.read_text())
    environment = result["environment"]
    assert environment["pinned"] is True and environment["pinned_cpu"] == CPU
    assert {"nproc", "python", "loadavg_1min", "git_commit"} <= set(environment)
    assert set(result["workloads"]["local-read-mostly"]["metrics"]) == END_TO_END | PER_LAYER


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to measure."""
    (tmp_path / "benchmarks").mkdir()
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir()
    for source in HERE.glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, str(bare / "run.py"), "--workload", "local-read-mostly"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
