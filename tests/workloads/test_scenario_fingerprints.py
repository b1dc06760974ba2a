"""Every scenario kind, on every runtime, reproduces its pinned fingerprint.

The committed smoke baselines cover only some kinds.  This sweep pins all of
them: each kind's default spec on every runtime kind (broadcast-capable
runtimes with one and with two shards), plus a gateway run of the kinds
that declare tenants, on 5 nodes under seed 7.  A refactor of the scenario
module must reproduce every cell byte for byte.

``scenario_fingerprints.jsonl`` holds one JSON line per cell, so a diff
names the cell that moved.  Regenerate it (only for an intended change of
behaviour) with::

    PYTHONPATH=src python tests/workloads/test_scenario_fingerprints.py \\
        > tests/workloads/scenario_fingerprints.jsonl
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.workloads import RUNTIME_KINDS, ScenarioRegistry, WorkloadRunner

PINNED = Path(__file__).with_name("scenario_fingerprints.jsonl")
NUM_NODES = 5
SEED = 7
BROADCAST_CAPABLE = ("broadcast", "adaptive")


def cells():
    """``(cell id, WorkloadRunner kwargs)`` for every pinned cell, in order."""
    out = []
    for kind in ScenarioRegistry.names():
        for runtime in RUNTIME_KINDS:
            for shards in ((1, 2) if runtime in BROADCAST_CAPABLE else (1,)):
                out.append((f"{kind}/{runtime}/shards={shards}",
                            dict(scenario=kind, runtime=runtime,
                                 num_shards=shards)))
        if ScenarioRegistry.get(kind).default_spec().tenants:
            out.append((f"{kind}/broadcast/gateway",
                        dict(scenario=kind, runtime="broadcast",
                             gateway=True)))
    return out


def line_for(cell, kwargs):
    report = WorkloadRunner(num_nodes=NUM_NODES, seed=SEED, **kwargs).run()
    return json.dumps({"cell": cell, "fingerprint": report.fingerprint()},
                      sort_keys=True)


@functools.lru_cache(maxsize=None)
def pinned_lines():
    with PINNED.open(encoding="utf-8") as fh:
        return {json.loads(line)["cell"]: line.rstrip("\n") for line in fh}


CELLS = cells()


def test_every_cell_is_pinned():
    assert list(pinned_lines()) == [cell for cell, _ in CELLS]


@pytest.mark.parametrize("cell,kwargs", CELLS, ids=[cell for cell, _ in CELLS])
def test_cell_reproduces_its_pinned_fingerprint(cell, kwargs):
    assert line_for(cell, kwargs) == pinned_lines()[cell]


if __name__ == "__main__":
    for cell, kwargs in CELLS:
        print(line_for(cell, kwargs))
