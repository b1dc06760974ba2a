"""One workload, measured inside one fresh process.

``run.py`` starts this file once per workload, so that peak memory belongs to
that workload alone.  The worker does one discarded warm-up pass at 1/10
size, then timed repeats of the workload's fixed operation count until the
time budget is spent, and prints one JSON object: the samples of every
metric, the failures, and one digest per repeat.

Nothing here changes ``src/``: the timed region is bracketed by substituting
a recording ``Cluster`` subclass in the runner's namespace and a one-shot
``Scenario.perform`` that stamps the first client operation and removes
itself, so an untraced repeat runs the program's own code on every operation.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from repro.amoeba.cluster import Cluster  # noqa: E402
from repro.net import harness, oracle  # noqa: E402
from repro.net.runtime import RealTimings  # noqa: E402
from repro.workloads import runner as runner_module  # noqa: E402
from repro.workloads.runner import WorkloadReport, WorkloadRunner  # noqa: E402
from repro.workloads.scenarios import ScenarioRegistry  # noqa: E402

# The runner imports these two lazily; the tracer needs their classes loaded.
import repro.gateway  # noqa: E402,F401
import repro.txn  # noqa: E402,F401
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Where the benchmark may write: inside the checkout, ignored by git.
OUT_DIR = ROOT / ".perf_out"

#: Timed repeats a run makes even when one repeat overruns the time budget.
MIN_REPEATS = 3

#: Extra set-up-only passes of a simulator workload: at most this many, in at
#: most this many seconds and this share of the time budget.
SETUP_ONLY_PASSES = 30
SETUP_ONLY_SECONDS = 1.5
SETUP_ONLY_SHARE = 0.1

#: Loopback-friendly protocol timers, as in ``bench_real_backend.py``.
REAL_TIMINGS = RealTimings(
    heartbeat_interval=0.05,
    dead_after=0.5,
    retry_interval=0.05,
    sync_interval=0.05,
    gap_delay=0.03,
    submit_deadline=60.0,
)

#: Layers whose traced self time is reported.  ``net`` does its work in the
#: node processes, which are measured as processes and not traced.
SELF_TIME_LAYERS = ("sim", "amoeba", "rts", "txn", "gateway", "workloads", "metrics")

_TICK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------- #
# Clocks
# ---------------------------------------------------------------------- #


def child_pids() -> List[int]:
    """Live processes whose parent is this one."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # exited while we were listing
            if stat.rsplit(")", 1)[1].split()[1] == me:
                pids.append(int(entry))
    return pids


def _cpu_seconds_of(pid: int) -> float:
    """CPU a live process has used: scheduler run time, else clock ticks."""
    try:
        tasks = list(Path("/proc", str(pid), "task").iterdir())
        return sum(int((task / "schedstat").read_text().split()[0]) for task in tasks) / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        fields = Path("/proc", str(pid), "stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK
    except OSError:
        return 0.0


def children_peak_rss_mb() -> float:
    """Largest resident-set high-water mark among the live children.

    Read from ``VmHWM`` while the children are alive: after ``exec`` a child's
    ``ru_maxrss`` still carries its parent's peak, its ``VmHWM`` does not.
    """
    peak = 0.0
    for pid in child_pids():
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024.0)
    return peak


def stolen_seconds(cpu: int) -> float:
    """Seconds the hypervisor ran something else on ``cpu`` since boot."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat") as handle:
        for line in handle:
            if line.startswith(prefix):
                return int(line.split()[8]) / _TICK
    return 0.0


class Stamp:
    """Wall, CPU (this process, optionally plus live children) and steal, read together."""

    def __init__(self, cpu: int, children: bool = False) -> None:
        self.wall = time.perf_counter()
        self.own_cpu = time.process_time()
        self.child_cpu = sum(_cpu_seconds_of(pid) for pid in child_pids()) if children else 0.0
        self.stolen = stolen_seconds(cpu)


# ---------------------------------------------------------------------- #
# Hooks into the program, from outside
# ---------------------------------------------------------------------- #


@contextmanager
def recording_cluster(record: Dict[str, Any]) -> Iterator[None]:
    """Make the runner build a ``Cluster`` that notes its simulator's counters."""

    class RecordingCluster(Cluster):
        def shutdown(self) -> None:
            record["events"] = self.sim.events_processed
            record["processes"] = len(self.sim.processes)
            record["max_seq_queue_depth"] = max(
                (group.sequencer.max_queue_depth for group in self.broadcast_groups.values()),
                default=0,
            )
            super().shutdown()

    original = runner_module.Cluster
    runner_module.Cluster = RecordingCluster
    try:
        yield
    finally:
        runner_module.Cluster = original


@contextmanager
def first_perform(scenario_class: type, on_first: Callable[[], None]) -> Iterator[None]:
    """Call ``on_first`` when the scenario performs its first request.

    The replacement removes itself on that first call, so every later
    operation runs the scenario's own ``perform`` with nothing in between.
    """
    own = scenario_class.__dict__.get("perform")
    inherited = scenario_class.perform

    def restore() -> None:
        if own is None:
            if "perform" in scenario_class.__dict__:
                del scenario_class.perform
        else:
            scenario_class.perform = own

    def perform(self: Any, rts: Any, proc: Any, request: Any) -> Any:
        restore()
        on_first()
        return inherited(self, rts, proc, request)

    scenario_class.perform = perform
    try:
        yield
    finally:
        restore()


@contextmanager
def perturbation(spec: Optional[Dict[str, Any]]) -> Iterator[List[int]]:
    """Burn ``busy_us`` of CPU on every call of one layer entry (self-check only).

    ``spec`` is ``{"module", "cls", "method", "busy_us"}``; ``None`` leaves
    the program alone.  Yields a one-item list counting the slowed calls.
    """
    calls = [0]
    if spec is None:
        yield calls
        return
    cls = getattr(importlib.import_module(spec["module"]), spec["cls"])
    original = cls.__dict__[spec["method"]]
    # An empty counted loop, sized once on the CPU clock: reading a clock on
    # every turn instead would enter the kernel hundreds of times per call
    # and cost the program its cache on top of the CPU burned.
    probe = 2_000_000
    before = time.thread_time_ns()
    for _ in range(probe):
        pass
    turns = range(int(spec["busy_us"] * 1000 * probe / (time.thread_time_ns() - before)))

    def slowed(*args: Any, **kwargs: Any) -> Any:
        calls[0] += 1
        for _ in turns:
            pass
        return original(*args, **kwargs)

    slowed.__name__ = original.__name__
    slowed.__module__ = original.__module__
    setattr(cls, spec["method"], slowed)
    try:
        yield calls
    finally:
        setattr(cls, spec["method"], original)


# ---------------------------------------------------------------------- #
# One repeat
# ---------------------------------------------------------------------- #


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_report(workload: Workload, report: WorkloadReport, expected_ops: int) -> List[str]:
    """The facts a correct run must show; returns what is wrong (nothing = correct)."""
    wrong = []
    if report.total_ops != expected_ops:
        wrong.append(f"completed {report.total_ops} ops, expected {expected_ops}")
    facts = report.scenario_facts
    if workload.scenario == "counter-farm":
        if facts.get("counter_total") != report.writes:
            wrong.append(f"counter total {facts.get('counter_total')} != {report.writes} writes")
    if workload.scenario == "bank-transfer":
        endowment = 100 * workload.spec.num_keys
        if facts.get("bank_total") != endowment:
            wrong.append(f"bank total {facts.get('bank_total')} != {endowment}")
        settled = facts.get("transfers_committed", 0) + facts.get("transfers_aborted", 0)
        if settled != report.writes:
            wrong.append(f"{settled} transfers settled, {report.writes} attempted")
    gateway = report.rts_summary.get("gateway")
    if gateway and (gateway["shed"] or gateway["completed"] != gateway["offered"]):
        wrong.append(f"gateway shed {gateway['shed']} of {gateway['offered']} offered")
    return wrong


def sim_counters(report: WorkloadReport, record: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer counts from the run's public summaries (exact for a seed)."""
    ops = max(1, report.total_ops)
    network, rts = report.network, report.rts_summary
    reads = rts.get("local_reads", 0) + rts.get("remote_reads", 0)
    shards = rts.get("sharding", {}).get("per_shard", {}).values()
    batches = sum(shard["batches"] for shard in shards)
    txn = rts.get("transactions", {})
    txn_attempts = txn.get("commits", 0) + txn.get("aborts", 0)
    gateway = rts.get("gateway", {})
    latency = report.percentile_row()
    return {
        "sim.events_per_op": record["events"] / ops,
        "sim.processes_spawned": record["processes"],
        "amoeba.messages_per_op": network["messages"] / ops,
        "amoeba.broadcasts_per_op": network["broadcasts"] / ops,
        "amoeba.wire_bytes_per_op": network["wire_bytes"] / ops,
        "amoeba.interrupts_per_op": network["interrupts"] / ops,
        "amoeba.dropped_packets": network["dropped_packets"],
        "rts.local_read_ratio": rts.get("local_reads", 0) / reads if reads else 0.0,
        "rts.guard_retries": rts.get("guard_retries", 0),
        "rts.mean_batch": sum(s["batched_ops"] for s in shards) / batches if batches else 0.0,
        "rts.max_seq_queue_depth": record["max_seq_queue_depth"],
        "txn.commits": txn.get("commits", 0),
        "txn.abort_ratio": txn.get("aborts", 0) / txn_attempts if txn_attempts else 0.0,
        "txn.cross_shard_ratio": (
            txn.get("cross_shard_commits", 0) / txn["commits"] if txn.get("commits") else 0.0
        ),
        "gateway.sessions": gateway.get("sessions", 0),
        "gateway.admitted_ratio": (
            gateway["completed"] / gateway["offered"] if gateway.get("offered") else 0.0
        ),
        "gateway.shed": gateway.get("shed", 0),
        "model.ops_per_vs": report.throughput,
        "model.p50_ms": latency["p50"] * 1e3,
        "model.p99_ms": latency["p99"] * 1e3,
        "model.elapsed_vs": report.elapsed,
    }


def traced_metrics(
    tracer: tracing.Tracer, ops: int, span_cost: Any, untraced_cpu_s: Optional[float]
) -> Dict[str, float]:
    """Per-layer CPU and call counts from one traced repeat.

    ``untraced_cpu_s`` is the CPU of the untraced repeat run just before, to
    which the layers' self times are made to add up (see ``Tracer.attribute``).
    """
    ops = max(1, ops)
    untraced_cpu_ns = None if untraced_cpu_s is None else untraced_cpu_s * 1e9
    layer_ns, program_ns = tracer.attribute(span_cost, untraced_cpu_ns)
    metrics: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_us_per_op"] = layer_ns[layer] / 1e3 / ops
        if layer != "metrics":  # too small a share to be worth a second number
            metrics[f"{layer}.self_cpu_share"] = layer_ns[layer] / program_ns
    in_layers = sum(layer_ns[layer] for layer in tracing.LAYERS)
    metrics["trace.unattributed_share"] = 1.0 - in_layers / program_ns
    switches = tracer.calls("SimProcess.suspend") + tracer.holds_that_yield
    metrics["sim.process_switches_per_op"] = switches / ops
    metrics["rts.invokes_per_op"] = tracer.calls("RuntimeSystem.invoke") / ops
    metrics["amoeba.rpc_calls_per_op"] = tracer.calls("RpcEndpoint.call") / ops
    return metrics


class _SetupOnly(Exception):
    """Raised from the first client operation to end a set-up-only pass."""


def run_sim(
    workload: Workload,
    seed: int,
    scale: float,
    cpu: int,
    tracer: Optional[tracing.Tracer],
    setup_only: bool = False,
) -> Dict[str, Any]:
    """One run of a simulator workload; ``setup_only`` stops at the first operation."""
    spec = workload.sized(scale)
    expected_ops = workload.expected_ops(spec)
    record: Dict[str, Any] = {}
    stamps: Dict[str, Stamp] = {}
    report = error = None

    def on_first_op() -> None:
        stamps["first_op"] = Stamp(cpu)
        if setup_only:
            raise _SetupOnly()

    scenario_class = ScenarioRegistry.get(workload.scenario)
    with tracer or nullcontext(), recording_cluster(record), first_perform(
        scenario_class, on_first_op
    ):
        stamps["call"] = Stamp(cpu)
        try:
            report = WorkloadRunner(
                workload.scenario,
                workload=spec,
                runtime=workload.runtime,
                num_nodes=workload.num_nodes,
                clients_per_node=workload.clients_per_node,
                seed=seed,
                num_shards=workload.num_shards,
                gateway=workload.gateway,
            ).run()
        except Exception:  # a failed repeat is counted, not fatal
            if not setup_only:
                error = traceback.format_exc(limit=3)
        stamps["done"] = Stamp(cpu)
    counters: Dict[str, float] = {}
    digest = None
    if report is not None:
        error = "; ".join(check_report(workload, report, expected_ops)) or None
        counters = sim_counters(report, record)
        digest = _digest([report.fingerprint(), report.network])
    return _result(stamps, expected_ops, error, counters, digest)


def run_real(
    workload: Workload, seed: int, scale: float, cpu: int, tracer: Optional[tracing.Tracer]
) -> Dict[str, Any]:
    spec = workload.sized(scale)
    expected_ops = workload.expected_ops(spec)
    config = harness.RealClusterConfig(
        scenario=workload.scenario,
        workload=spec,
        num_nodes=workload.num_nodes,
        num_shards=workload.num_shards,
        clients_per_node=workload.clients_per_node,
        seed=seed,
        timings=REAL_TIMINGS,
    )
    # The oracle's replay of the request streams is the benchmark's own
    # checking cost, so it happens before any clock is read.
    expected = oracle.expected_issued_writes(config)
    stamps: Dict[str, Stamp] = {}
    outcome = error = None
    peak_rss = 0.0
    with tracer or nullcontext(), _temp_files_in(OUT_DIR):
        stamps["call"] = Stamp(cpu)
        try:
            cluster = harness.RealCluster(config)
            try:
                cluster.start()
                stamps["first_op"] = Stamp(cpu, children=True)
                outcome = cluster.run_workload()
                stamps["done"] = Stamp(cpu, children=True)
                peak_rss = children_peak_rss_mb()
            finally:
                cluster.shutdown()
            stamps["down"] = Stamp(cpu)
            oracle.check_convergence(outcome, expected)
            stamps["checked"] = Stamp(cpu)
        except Exception:  # a failed repeat is counted, not fatal
            error = traceback.format_exc(limit=3)
            stamps.setdefault("done", Stamp(cpu))
    counters: Dict[str, float] = {}
    if error is None:
        completed = outcome["reads"] + outcome["writes"]
        if completed != expected_ops:
            error = f"completed {completed} ops, expected {expected_ops}"
        ops = max(1, completed)
        nodes = outcome["nodes"].values()
        first_op, done = stamps["first_op"], stamps["done"]
        counters = {
            "net.boot_s": first_op.wall - stamps["call"].wall,
            "net.run_s": done.wall - first_op.wall,
            "net.check_s": stamps["checked"].wall - stamps["down"].wall,
            "net.datagrams_per_op": sum(n["transport"]["datagrams_sent"] for n in nodes) / ops,
            "net.bytes_per_op": sum(n["transport"]["bytes_sent"] for n in nodes) / ops,
            "net.retransmits": sum(n["stats"].get("retransmissions", 0) for n in nodes),
            "net.node_cpu_us_per_op": (done.child_cpu - first_op.child_cpu) * 1e6 / ops,
            "net.driver_cpu_us_per_op": (done.own_cpu - first_op.own_cpu) * 1e6 / ops,
        }
    result = _result(stamps, expected_ops, error, counters, None)
    result["peak_rss_mb"] = peak_rss
    return result


@contextmanager
def _temp_files_in(directory: Path) -> Iterator[None]:
    """The real backend's harness keeps its node logs in a temp dir: keep
    that inside the checkout for as long as its cluster lives."""
    directory.mkdir(exist_ok=True)
    before, tempfile.tempdir = tempfile.tempdir, str(directory)
    try:
        yield
    finally:
        tempfile.tempdir = before


def _result(
    stamps: Dict[str, Stamp],
    expected_ops: int,
    error: Optional[str],
    counters: Dict[str, float],
    digest: Optional[str],
) -> Dict[str, Any]:
    """One run's outcome.  The timed region is first client operation -> done;
    set-up is what precedes it; an error fails every operation of the run."""
    first_op, done = stamps.get("first_op"), stamps["done"]
    result: Dict[str, Any] = {
        "attempted": expected_ops,
        "failed": expected_ops if error else 0,
        "error": error,
        "counters": counters,
        "digest": digest,
        "total_cpu_s": done.own_cpu - stamps["call"].own_cpu,
    }
    if first_op is not None:
        result["setup_s"] = first_op.wall - stamps["call"].wall
        result["wall_s"] = done.wall - first_op.wall
        result["stolen_s"] = done.stolen - first_op.stolen
        result["cpu_s"] = (done.own_cpu + done.child_cpu) - (first_op.own_cpu + first_op.child_cpu)
    return result


# ---------------------------------------------------------------------- #
# The run: warm-up, then repeats until the budget is spent
# ---------------------------------------------------------------------- #


def measure(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload as ``request`` asks; returns samples per metric.

    ``request``: ``workload``, ``seed``, ``seconds``, ``scale``, ``trace``
    (bool), ``cpu`` (the pinned CPU, for steal accounting), ``trace_out``
    (path or ``None``), ``perturb`` (see :func:`perturbation`).
    """
    workload = WORKLOADS[request["workload"]]
    seed, scale, cpu = request["seed"], request["scale"], request["cpu"]
    run_workload = run_real if workload.backend == "real" else run_sim

    def run_once(*args: Any, **kwargs: Any) -> Dict[str, Any]:
        # The previous run's clusters are cyclic garbage; collect them now so
        # that no run pays for its predecessor inside a timed region.
        gc.collect()
        return run_workload(*args, **kwargs)

    span_cost = tracing.calibrate() if request["trace"] else None

    repeats: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    tracer = None
    with perturbation(request.get("perturb")) as slowed_calls:
        warm_up = run_once(workload, seed, scale / 10.0, cpu, None)
        if request["trace"]:
            # The wrappers warm up too.
            run_once(workload, seed, scale / 10.0, cpu, tracing.Tracer())
        slowed_calls[0] = 0
        started = time.perf_counter()
        longest = 0.0
        setup_only_s = 0.0
        if workload.backend == "sim" and not request["trace"]:
            setup_only_s = min(SETUP_ONLY_SECONDS, SETUP_ONLY_SHARE * request["seconds"])
        budget = request["seconds"] - setup_only_s
        while len(repeats) < (1 if request["trace"] else MIN_REPEATS) or (
            time.perf_counter() - started + longest <= budget
        ):
            before = time.perf_counter()
            repeats.append(run_once(workload, seed, scale, cpu, None))
            if len(repeats) == 1:
                # After the same work in every run (warm-up + one repeat), not
                # after however many repeats the host's speed allowed.
                own_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if request["trace"]:
                tracer = tracing.Tracer(tracing.KEPT_SPANS if request["trace_out"] else 0)
                result = run_once(workload, seed, scale, cpu, tracer)
                untraced_cpu_s = None if repeats[-1]["failed"] else repeats[-1]["total_cpu_s"]
                result["counters"].update(
                    traced_metrics(tracer, result["attempted"], span_cost, untraced_cpu_s)
                )
                traced.append(result)
            longest = max(longest, time.perf_counter() - before)
        # Set-up takes milliseconds, so one sample per repeat is mostly
        # noise; setting up again and stopping at the first operation is cheap.
        setups: List[float] = []
        started = time.perf_counter()
        while len(setups) < SETUP_ONLY_PASSES and time.perf_counter() - started < setup_only_s:
            setup_pass = run_once(workload, seed, scale, cpu, None, setup_only=True)
            if "setup_s" in setup_pass:
                setups.append(setup_pass["setup_s"])
    if tracer is not None and request.get("trace_out"):
        tracer.write_chrome_trace(request["trace_out"])

    attempted = sum(r["attempted"] for r in repeats + traced)
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "ops_per_repeat": repeats[0]["attempted"],
        "attempted": attempted,
        "perturbed_calls_per_op": slowed_calls[0] / attempted,
        "failed": sum(r["failed"] for r in repeats + traced) + _digest_failures(repeats + traced),
        "errors": [r["error"] for r in [warm_up] + repeats + traced if r["error"]],
        "digests": [r["digest"] for r in repeats + traced],
        "samples": _samples(workload, repeats, traced, setups, own_peak_rss_mb),
        "stolen_share": (
            sum(r.get("stolen_s", 0.0) for r in repeats)
            / max(sum(r.get("wall_s", 0.0) for r in repeats), 1e-9)
        ),
    }


def _digest_failures(runs: List[Dict[str, Any]]) -> int:
    """Ops of every sim repeat whose model digest differs from the first repeat's."""
    first = runs[0]["digest"]
    return sum(r["attempted"] for r in runs if not r["failed"] and r["digest"] != first)


def _samples(
    workload: Workload,
    repeats: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    setups: List[float],
    own_peak_rss_mb: float,
) -> Dict[str, List[float]]:
    """One list of values per metric: end-to-end from the untraced runs only."""
    samples: Dict[str, List[float]] = {
        "ops_per_s": [],
        "cpu_us_per_op": [],
        "setup_s": list(setups),
        "peak_rss_mb": [],
    }
    for run in repeats:
        if run["failed"] or "wall_s" not in run:
            continue
        # Wall seconds during which the pinned CPU was ours to use.
        available = max(run["wall_s"] - run["stolen_s"], 1e-9)
        samples["ops_per_s"].append(run["attempted"] / available)
        samples["cpu_us_per_op"].append(run["cpu_s"] * 1e6 / run["attempted"])
        samples["setup_s"].append(run["setup_s"])
        if workload.backend == "real":
            samples["peak_rss_mb"].append(run["peak_rss_mb"])
    if workload.backend == "sim":
        samples["peak_rss_mb"].append(own_peak_rss_mb)
    for run in traced or repeats:
        for name, value in run["counters"].items():
            samples.setdefault(name, []).append(value)
    if traced:
        good = [(t, u) for t, u in zip(traced, repeats) if "wall_s" in t and "wall_s" in u]
        samples["trace.overhead_ratio"] = [t["wall_s"] / u["wall_s"] for t, u in good]
    return samples


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
