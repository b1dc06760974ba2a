"""GATEWAY — graceful degradation at the client edge.

PR 10 added the session tier (:mod:`repro.gateway`): per-node gateways
multiplex thousands of lightweight client sessions onto the runtime's
invoke path through admission control, per-tenant weighted fair queueing
with token-bucket quotas, and overload shedding off the sequencer queue
depth.  Four cells measure what the front door buys:

* **flash-unloaded** — the reference cell: the crowd tenant at its calm
  arrival rate, nothing sheds; its p99 is the "healthy" latency;
* **flash-shed / flash-unshed** — the same crowd spikes to 4x the calm
  rate.  With the bounded accept queue the gateway sheds the excess and
  the *admitted* requests' p99 stays within 2x of the unloaded cell;
  with the bound removed every arrival is admitted and the backlog
  drags p99 out by well over an order of magnitude;
* **noisy-neighbour** — a quota-capped aggressive tenant shares the
  gateway with a protected quiet tenant: the quiet tenant's p99 must
  stay within 20% of its quiet-alone reference (the uncapped variant is
  reported for contrast);
* **scale** — >=10k concurrent sessions through 8 gateways, the
  many-cheap-sessions design point (sessions are state machines, not
  simulated processes).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.metrics.report import format_table
from repro.workloads import (
    PhaseSpec,
    TenantSpec,
    WorkloadRunner,
    WorkloadSpec,
)

try:
    from conftest import run_once
except ImportError:  # pragma: no cover - imported via pins.py, where conftest is tests/'s
    run_once = None

NUM_NODES = 4
SEED = 42

#: Calm per-gateway arrival rate (req/s) and the flash-crowd multiplier.
CALM_RATE = 1000.0
OVERLOAD = 4.0
CROWD_SESSIONS = 16
READ_FRACTION = 0.5

#: The quiet tenant every noisy-neighbour variant must protect.
QUIET = TenantSpec(name="quiet", sessions=4, weight=4.0, priority=1,
                   arrival_rate=100.0, ops_per_session=60)


def _run(workload, gateway, num_nodes=NUM_NODES, seed=SEED):
    return WorkloadRunner("counter-farm", workload=workload,
                          runtime="broadcast", num_nodes=num_nodes,
                          seed=seed, gateway=gateway).run()


def _tenant_facts(report, name):
    """One tenant's edge-side facts, flattened for the smoke report."""
    row = report.rts_summary["gateway"]["tenants"][name]
    return {
        "offered": row["offered"],
        "completed": row["completed"],
        "shed": dict(row["shed"]),
        "p50": row["latency"]["p50"],
        "p99": row["latency"]["p99"],
        "throughput": round(row["completed"] / report.elapsed, 3),
    }


# ---------------------------------------------------------------------- #
# Cells
# ---------------------------------------------------------------------- #


def run_flash_crowd_cell(mode, seed=SEED, num_nodes=NUM_NODES, burst_ops=60):
    """The crowd tenant under one of three edge configurations.

    ``"unloaded"`` runs the calm rate throughout (the latency reference);
    ``"shed"`` spikes to ``OVERLOAD`` x calm behind the bounded accept
    queue; ``"unshed"`` runs the same spike with the bound removed, so
    the backlog — not the front door — absorbs the crowd.
    """
    crowd = TenantSpec(name="crowd", sessions=CROWD_SESSIONS)
    per_session = CALM_RATE / CROWD_SESSIONS
    if mode == "unloaded":
        workload = WorkloadSpec(
            name="flash-unloaded", num_keys=32, read_fraction=READ_FRACTION,
            client_model="open", arrival_rate=per_session,
            ops_per_client=burst_ops // 2 + burst_ops, tenants=(crowd,))
    else:
        workload = WorkloadSpec(
            name="flash", num_keys=32, read_fraction=READ_FRACTION,
            client_model="open", tenants=(crowd,),
            phases=(PhaseSpec(ops_per_client=burst_ops // 4,
                              arrival_rate=per_session),
                    PhaseSpec(ops_per_client=burst_ops,
                              arrival_rate=per_session * OVERLOAD),
                    PhaseSpec(ops_per_client=burst_ops // 4,
                              arrival_rate=per_session)))
    accept_queue = None if mode == "unshed" else 2 if mode == "shed" else 64
    report = _run(workload, {"workers": 2, "accept_queue": accept_queue},
                  num_nodes=num_nodes, seed=seed)
    return {**_tenant_facts(report, "crowd"), **report.counters()}


def run_noisy_neighbour_cell(noisy, seed=SEED, num_nodes=NUM_NODES):
    """The quiet tenant alone, or sharing with a (capped?) noisy tenant.

    ``noisy=None`` is the quiet-alone reference; ``"capped"`` adds an
    aggressive tenant behind a token-bucket quota; ``"uncapped"`` removes
    the quota so only fair queueing stands between the tenants.
    """
    tenants = (QUIET,)
    if noisy is not None:
        rate, burst = (300.0, 10.0) if noisy == "capped" else (None, None)
        tenants += (TenantSpec(name="noisy", sessions=8, priority=0,
                               rate=rate, burst=burst, arrival_rate=250.0,
                               ops_per_session=60),)
    workload = WorkloadSpec(
        name="noisy-neighbour", num_keys=32, read_fraction=READ_FRACTION,
        client_model="open", arrival_rate=100.0, ops_per_client=60,
        tenants=tenants)
    report = _run(workload, {"workers": 2, "accept_queue": 64}, num_nodes=num_nodes, seed=seed)
    facts = {"quiet": _tenant_facts(report, "quiet"), **report.counters()}
    if noisy is not None:
        facts["noisy"] = _tenant_facts(report, "noisy")
    return facts


def run_scale_cell(sessions_per_gateway, num_nodes=8, seed=SEED):
    """Many cheap sessions: a whole fleet through a handful of gateways."""
    workload = WorkloadSpec(
        name="scale", num_keys=64, read_fraction=0.9, client_model="open",
        arrival_rate=4.0, ops_per_client=3,
        tenants=(TenantSpec(name="fleet", sessions=sessions_per_gateway),))
    report = _run(workload, {"workers": 8, "accept_queue": 256}, num_nodes=num_nodes, seed=seed)
    gateway = report.rts_summary["gateway"]
    facts = _tenant_facts(report, "fleet")
    facts["sessions"] = gateway["sessions"]
    facts["gateways"] = gateway["gateways"]
    facts.update(report.counters())
    return facts


def gateway_cells(seed=SEED, num_nodes=NUM_NODES, burst_ops=60, scale_sessions=1280, scale_nodes=8):
    """The seven cells as zero-argument runners, sized by the arguments."""
    sized = dict(seed=seed, num_nodes=num_nodes)
    return {
        "flash-unloaded": partial(run_flash_crowd_cell, "unloaded", burst_ops=burst_ops, **sized),
        "flash-shed": partial(run_flash_crowd_cell, "shed", burst_ops=burst_ops, **sized),
        "flash-unshed": partial(run_flash_crowd_cell, "unshed", burst_ops=burst_ops, **sized),
        "quiet-alone": partial(run_noisy_neighbour_cell, None, **sized),
        "noisy-capped": partial(run_noisy_neighbour_cell, "capped", **sized),
        "noisy-uncapped": partial(run_noisy_neighbour_cell, "uncapped", **sized),
        "scale": partial(run_scale_cell, scale_sessions, num_nodes=scale_nodes, seed=seed),
    }


# ---------------------------------------------------------------------- #
# Benchmarks
# ---------------------------------------------------------------------- #


def _print_cells(title, cells):
    unloaded = cells["flash-unloaded"]

    def flash_row(name):
        cell = cells[name]
        return [name, f"{cell['completed']}/{cell['offered']}",
                f"p99={cell['p99'] * 1e3:.3f}ms",
                f"x{cell['p99'] / unloaded['p99']:.2f}",
                f"{cell['throughput']:.0f}/s"]

    quiet_alone = cells["quiet-alone"]["quiet"]

    def quiet_row(name):
        quiet = cells[name]["quiet"]
        return [name, f"{quiet['completed']}/{quiet['offered']}",
                f"p99={quiet['p99'] * 1e3:.3f}ms",
                f"x{quiet['p99'] / quiet_alone['p99']:.2f}",
                f"{quiet['throughput']:.0f}/s"]

    scale = cells["scale"]
    rows = [
        flash_row("flash-unloaded"),
        flash_row("flash-shed"),
        flash_row("flash-unshed"),
        quiet_row("quiet-alone"),
        quiet_row("noisy-capped"),
        quiet_row("noisy-uncapped"),
        ["scale", f"{scale['sessions']} sessions",
         f"p99={scale['p99'] * 1e3:.3f}ms", "-",
         f"{scale['throughput']:.0f}/s"],
    ]
    print()
    print(format_table(["cell", "volume", "latency", "vs ref", "goodput"], rows, title=title))


@pytest.mark.benchmark(group="gateway")
def test_gateway_sheds_gracefully_under_overload(benchmark):
    cells = run_once(benchmark, lambda: {name: run() for name, run in gateway_cells().items()})

    unloaded = cells["flash-unloaded"]
    shed, unshed = cells["flash-shed"], cells["flash-unshed"]
    assert unloaded["shed"] == dict.fromkeys(unloaded["shed"], 0)
    # Graceful degradation: under the 4x flash crowd the bounded accept
    # queue sheds the excess and keeps the admitted requests' p99 within
    # 2x of the unloaded reference ...
    assert sum(shed["shed"].values()) > 0, "the flash crowd never shed"
    assert shed["p99"] <= 2.0 * unloaded["p99"], (shed, unloaded)
    # ... while admitting everything lets the backlog spiral the tail
    # out by an order of magnitude or more.
    assert unshed["completed"] == unshed["offered"]
    assert unshed["p99"] >= 10.0 * unloaded["p99"], (unshed, unloaded)

    alone = cells["quiet-alone"]["quiet"]
    capped = cells["noisy-capped"]
    # Noisy neighbour: behind its quota the aggressive tenant cannot move
    # the protected tenant's p99 by more than 20%.
    assert capped["noisy"]["shed"]["quota"] > 0, "the quota never engaged"
    assert capped["quiet"]["p99"] <= 1.2 * alone["p99"], (capped, alone)
    assert capped["quiet"]["completed"] == capped["quiet"]["offered"]

    scale = cells["scale"]
    assert scale["sessions"] >= 10_000
    assert scale["completed"] == scale["offered"] == 3 * scale["sessions"]

    # Determinism: the cheapest cell replays byte-for-byte.
    repeat = run_noisy_neighbour_cell(None)
    assert repeat == cells["quiet-alone"]

    benchmark.extra_info["cells"] = cells
    _print_cells(f"Gateway admission control on {NUM_NODES} nodes (seed {SEED})", cells)

