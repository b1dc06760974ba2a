"""Work on the seam between the protocols and their transport must not
move the simulator by one byte.

The broadcast group runs on a simulated cluster and in real node
processes alike.  Changes to that seam are only safe if they are *inert*:
every committed smoke baseline (`benchmarks/baselines/*.json`) must be
reproduced byte-for-byte by the seeded smoke suites.  Any drift — an extra message, a reordered
delivery, a changed latency — shows up here as a byte diff.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: smoke-producing benchmark script -> committed baseline it must reproduce.
BASELINES = {
    "bench_workload_scenarios.py": "workloads.json",
    "bench_adaptive_migration.py": "adaptive.json",
    "bench_rebalancing.py": "rebalance.json",
    "bench_primary_recovery.py": "recovery.json",
    "bench_elasticity.py": "elasticity.json",
    # PR 8: the transaction layer is created lazily on the first
    # transact() call, so every *other* smoke above must stay
    # byte-identical to its pre-transaction baseline — while this one
    # pins the transactional paths themselves.
    "bench_transactions.py": "transactions.json",
    # The kernel-scaling sweep pins the kernel's hot path (the event heap,
    # the one run loop, batched broadcast delivery, fast hold) at the
    # 8/16/64-node scales where its constant factors actually matter.
    "bench_kernel_scaling.py": "kernel_scaling.json",
    # The gateway tier: admission, fair queueing and shedding at the edge.
    "bench_gateway.py": "gateway.json",
}


@pytest.mark.parametrize("script,baseline", sorted(BASELINES.items()))
def test_smoke_reproduces_committed_baseline(tmp_path, script, baseline):
    out = tmp_path / "smoke.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / script),
         "--smoke", "--out", str(out)],
        check=True, env=env, cwd=str(REPO), timeout=300)
    committed = (REPO / "benchmarks" / "baselines" / baseline).read_bytes()
    assert out.read_bytes() == committed, (
        f"{script} --smoke no longer reproduces baselines/{baseline}; "
        "the simulated backend's behaviour changed")
