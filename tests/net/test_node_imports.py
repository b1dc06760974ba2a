"""What a real node process imports.

``python -m repro.net.node_process`` runs the protocol core (the amoeba
message and broadcast modules, the object model, the primary-copy fan-out
table), the ``net`` driver and the scenario definitions — nothing of the
simulator.  Every node compiles its whole import closure at start-up when
no bytecode cache is written, one node after another on a pinned CPU, so the
closure is boot time.  The package ``__init__`` modules re-export lazily to
keep it this small; an eager re-export would drag the simulator back in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

#: Simulator drivers and real-backend harness modules a node never runs.
NOT_IN_A_NODE = (
    "repro.sim.kernel",
    "repro.sim.process",
    "repro.amoeba.cluster",
    "repro.amoeba.node",
    "repro.amoeba.network",
    "repro.rts.hybrid",
    "repro.rts.switch",
    "repro.rts.policy",
    "repro.amoeba.rpc",
    "repro.workloads.runner",
    "repro.txn",
    "repro.gateway",
    "repro.net.harness",
    "repro.net.oracle",
    "repro.net.runner",
)

#: Source lines of every ``repro`` module a node loads (16 728 when the
#: package ``__init__`` modules re-exported eagerly, 6 965 when they first
#: re-exported lazily, 6 942 before and 6 720 after the nine counter scenario
#: kinds became one family, 6 691 once ``RealObject`` became a ``Replica`` and
#: the unread built-in operations and error class went, 6 647 once the
#: simulator tracer, the real node's stand-in for it and the unused reply
#: builder on ``Message`` went, 6 572 once the PB and BB senders became one
#: send path and the election moved to ``election.py``).  The cap is that plus
#: 60 lines:
#: ``net/runtime.py``, the broadcast group and the scenario definitions are
#: in the closure, so protocol growth alone can cross it.
#: The forbidden-module check above is the main guard; this one catches a
#: closure that grows without loading any of those modules.
MAX_CLOSURE_LINES = 6632

_PROBE = """
import json, sys
import repro.net.node_process
loaded = {name: getattr(module, "__file__", None) for name, module in sys.modules.items()
          if name == "repro" or name.startswith("repro.")}
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded():
    """``{module: source file}`` of the ``repro`` modules a fresh
    interpreter holds after importing the node entry point."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                         capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def source_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def test_a_node_imports_no_simulator_driver(loaded):
    assert "repro.net.node_process" in loaded
    assert sorted(set(NOT_IN_A_NODE) & set(loaded)) == []


def test_a_node_loads_under_7000_source_lines(loaded):
    lines = {name: source_lines(path) for name, path in loaded.items() if path}
    total = sum(lines.values())
    assert total < MAX_CLOSURE_LINES, (
        f"a node loads {total} repro source lines, cap {MAX_CLOSURE_LINES}. "
        "If no new module below is an eager re-export or a simulator module, "
        "the protocol core grew: raise the cap in the same change. "
        f"Loaded: {sorted(lines.items(), key=lambda item: -item[1])}")
