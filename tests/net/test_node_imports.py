"""What a real node process imports.

``python -S -m repro.net.node_process`` runs the protocol core (the amoeba
message and broadcast modules, the object model, the primary-copy fan-out
table), the ``net`` driver and the scenario definitions — nothing of the
simulator, no asyncio (the node runs its own loop), no ctypes (the
subreaper call belongs to the harness), no OpenSSL (the harness derives the
clients' stream seeds, so neither ``hashlib`` nor the simulator's rng
registry is needed) and no ``logging`` (a client waits on a lock, not on a
``concurrent.futures`` future).  The cluster's launcher imports this
closure once, without ``site``, unpickles the run's plan (the probe below
runs as the launcher does, ``-S`` included, and unpickles one too, so what
a plan imports counts) and forks every node from it, so the closure is boot
time once per cluster: with no bytecode cache written, the launcher
compiles all of it before the first node exists.  The package ``__init__``
modules re-export lazily to keep it this small; an eager re-export would
drag the simulator back in.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.net.harness import RealClusterConfig

#: Simulator drivers, real-backend harness modules, the event-loop library,
#: the foreign-function library, OpenSSL's hash bindings and the logging
#: package a node never runs.
NOT_IN_A_NODE = (
    "asyncio",
    "ctypes",
    "hashlib",
    "_hashlib",
    "logging",
    "concurrent.futures",
    "repro.sim.rng",
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
#: send path and the election moved to ``election.py``, 6 589 once the
#: coherence protocols folded into ``PrimaryCopy`` and ``config.py`` grew,
#: 6 588 once a member's receive path went straight from ``_on_data`` to the
#: one replica apply, 6 630 once a client thread issued its own write, 6 633
#: once the node ran its own loop instead of asyncio's, 6 667 once
#: ``node_process`` became the launcher that forks every node, 6 655 once
#: each node was forked holding its plan, the probe unpickling one as the
#: launcher does, and 6 630 once the plan carried the clients' stream seeds,
#: so ``repro.sim`` left the node, and a client waited on a lock instead of
#: a future).  The cap was the closure plus 60 lines at 6 572 and stayed
#: at 6 632 while the closure grew to 6 630; it now stands 2 lines over the
#: closure:
#: ``net/runtime.py``, the broadcast group and the scenario definitions are
#: in the closure, so protocol growth alone can cross it.
#: The forbidden-module check above is the main guard; this one catches a
#: closure that grows without loading any of those modules.
MAX_CLOSURE_LINES = 6632

_PROBE = """
import json, pickle, sys
import repro.net.node_process
pickle.load(sys.stdin.buffer)
loaded = {name: getattr(module, "__file__", None) for name, module in sys.modules.items()}
print(json.dumps(loaded))
"""


def a_plan() -> bytes:
    """A counter-farm cluster's plan, pickled as the harness pickles it."""
    config = RealClusterConfig()
    return pickle.dumps(config.plan(0, "", config.build_object_table()))


@pytest.fixture(scope="module")
def loaded():
    """``{module: source file}`` of every module, standard library included,
    a fresh interpreter started as the launcher is (``-S``) holds after
    importing the node entry point and unpickling a plan."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE], check=True, input=a_plan(),
                         capture_output=True, env=env)
    return json.loads(out.stdout)


def source_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def test_a_node_imports_no_simulator_driver(loaded):
    assert "repro.net.node_process" in loaded
    assert "site" not in loaded
    assert sorted(set(NOT_IN_A_NODE) & set(loaded)) == []


def test_a_node_loads_under_7000_source_lines(loaded):
    lines = {name: source_lines(path) for name, path in loaded.items()
             if path and name.partition(".")[0] == "repro"}
    total = sum(lines.values())
    assert total < MAX_CLOSURE_LINES, (
        f"a node loads {total} repro source lines, cap {MAX_CLOSURE_LINES}. "
        "If no new module below is an eager re-export or a simulator module, "
        "the protocol core grew: raise the cap in the same change. "
        f"Loaded: {sorted(lines.items(), key=lambda item: -item[1])}")
