"""Both primary-copy drivers run through one I/O-free core.

``rts/p2p/fanout.py`` holds the applied-write table's rule and the ack debts
of fan-outs.  The simulated ``PrimaryCopy`` and the real-socket
``RealRuntime`` decide duplicates with its ``lookup_applied``, and the core
reaches no simulator, network, event loop or clock, so neither driver's
machinery can creep into it.  This reads the source.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CORE = SRC / "rts" / "p2p" / "fanout.py"

#: Standard-library modules the core may import: no I/O, no clock, no loop.
PURE = {"__future__", "collections", "dataclasses", "itertools", "typing"}


def test_the_core_imports_only_pure_standard_library_modules():
    imported = set()
    for node in ast.walk(ast.parse(CORE.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import of {node.module!r}"
            imported.add(node.module)
    assert {name.split(".")[0] for name in imported} <= PURE


def calls_in(path: Path, function: str):
    """Names of the plain functions ``function`` in ``path`` calls."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function:
            return {call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    raise AssertionError(f"{path.name} defines no {function}")


def test_both_drivers_decide_duplicates_with_the_core():
    assert "lookup_applied" in calls_in(SRC / "rts" / "primary.py", "_commit")
    assert "lookup_applied" in calls_in(SRC / "net" / "runtime.py", "_primary_apply")
