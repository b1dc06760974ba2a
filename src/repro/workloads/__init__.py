"""Synthetic shared-object workloads with latency-percentile measurement.

This package opens the scenario-diversity axis of the reproduction: instead
of the paper's four hand-written applications, it drives the runtimes with
parameterised synthetic traffic and reports latency *distributions* (p50,
p95, p99) and throughput, not just aggregate speedup.

* :mod:`repro.workloads.spec` — workload descriptions: key-popularity
  distributions (uniform / Zipfian), read/write mix, closed-loop (think
  time) and open-loop (Poisson arrivals) client models, multi-phase and
  bursty schedules;
* :mod:`repro.workloads.scenarios` — shared-object scenario kinds built on
  the :class:`~repro.rts.object_model.ObjectSpec` model (counter farm, KV
  table, FIFO job queue, read-mostly catalog, hot-spot cell) plus the
  :class:`ScenarioRegistry` new kinds register with;
* :mod:`repro.workloads.runner` — the :class:`WorkloadRunner`, which spawns
  simulated client processes on every node of a cluster and runs the traffic
  against any of the four runtimes: broadcast RTS, point-to-point RTS,
  central-server baseline, and the Ivy DSM baseline.

Quick use::

    from repro.workloads import WorkloadRunner

    report = WorkloadRunner("hot-spot", runtime="broadcast", num_nodes=8).run()
    print(report.throughput, report.percentile_row()["p99"])
"""

from .._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".runner": (
        "RUNTIME_KINDS",
        "WorkloadReport",
        "WorkloadRunner",
        "build_runtime",
        "run_scenario_matrix",
        "run_shard_sweep",
    ),
    ".scenarios": ("PollableQueue", "Scenario", "ScenarioRegistry", "scenario"),
    ".spec": (
        "KeySampler",
        "PhaseSpec",
        "Request",
        "TenantSpec",
        "WorkloadSpec",
        "bursty",
        "request_stream",
        "trace_arrivals",
        "traced_request_stream",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "RUNTIME_KINDS",
    "WorkloadReport",
    "WorkloadRunner",
    "build_runtime",
    "run_scenario_matrix",
    "run_shard_sweep",
    "Scenario",
    "ScenarioRegistry",
    "scenario",
    "PollableQueue",
    "KeySampler",
    "PhaseSpec",
    "Request",
    "TenantSpec",
    "WorkloadSpec",
    "bursty",
    "request_stream",
    "trace_arrivals",
    "traced_request_stream",
]
