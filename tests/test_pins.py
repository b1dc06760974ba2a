"""Every virtual-time cell reproduces its pin in ``benchmarks/baselines/``.

The registry is ``benchmarks/pins.py``: nine families of seeded simulator
runs, each pinned one JSON line per cell in ``<family>.jsonl``.  A change
that moves simulated behaviour fails here naming the ``family/cell`` it
moved.  Regenerate the pins (only for an intended change of behaviour)
with ``PYTHONPATH=src python benchmarks/pins.py --write``.
"""

from __future__ import annotations

import json

import pytest

import pins

CELLS = [(family, cell) for family, cells in pins.FAMILIES.items() for cell in cells]


@pytest.mark.parametrize(
    "family,cell", CELLS, ids=[f"{family}/{cell}" for family, cell in CELLS])
def test_cell_reproduces_its_pin(family, cell):
    fingerprint = pins.FAMILIES[family][cell]()
    assert pins.line(cell, fingerprint) == pins.pinned(family)[cell]


def test_every_pin_file_is_a_family():
    files = {path.stem for path in pins.BASELINES.glob("*.jsonl")}
    assert files == set(pins.FAMILIES)


@pytest.mark.parametrize("family", list(pins.FAMILIES))
def test_pin_file_lists_the_family_cells_in_order(family):
    assert list(pins.pinned(family)) == list(pins.FAMILIES[family])


@pytest.mark.parametrize("family", list(pins.FAMILIES))
def test_every_pin_carries_the_event_and_wire_byte_counters(family):
    for text in pins.pinned(family).values():
        fingerprint = json.loads(text)["fingerprint"]
        assert type(fingerprint["events"]) is int and fingerprint["events"] > 0
        assert type(fingerprint["wire_bytes"]) is int and fingerprint["wire_bytes"] > 0


def test_every_budgeted_cell_is_a_registry_cell():
    budget = json.loads(pins.BUDGET.read_text())
    assert budget
    assert set(budget) <= {f"{family}/{cell}" for family, cell in CELLS}


def test_budget_fails_a_missing_or_slow_cell_and_passes_a_fast_one():
    budget = {"k/missing": 5.0, "k/slow": 10.0, "k/fast": 60.0}
    timings = {"k/slow": 10.5, "k/fast": 59.9, "k/unbudgeted": 999.0}
    assert pins.check_budget(budget, timings) == [
        "k/missing: no measured timing (budget 5.0s)",
        "k/slow: 10.500s exceeds budget 10.000s",
    ]
