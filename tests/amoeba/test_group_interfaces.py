"""The broadcast group reaches its host and nodes only through its Protocols.

``amoeba/broadcast/group.py`` declares what ``GroupMember``, ``Sequencer``
and ``BroadcastGroup`` read of a node (``GroupNode``, with its clock and
timers) and of their host (``GroupHost``, with its transport).  The
attributes the package reads on those objects are exactly the members of
those Protocols, so a simulated cluster and a real node process can both
host it and the simulator's global view of the cluster cannot creep back
in.  The Protocols are typing-only, so this reads the source.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro" / "amoeba" / "broadcast"


def role(expr: ast.AST) -> Optional[str]:
    """The Protocol an expression is typed by, from its name alone:
    ``node`` / ``x.node``, ``sim`` / ``node.sim``, ``node.kernel``,
    ``cluster`` / ``x.cluster``, ``cluster.network``."""
    if isinstance(expr, ast.Name):
        return {"node": "GroupNode", "sim": "GroupClock", "cluster": "GroupHost"}.get(expr.id)
    if not isinstance(expr, ast.Attribute):
        return None
    if expr.attr == "node":
        return "GroupNode"
    if expr.attr == "cluster":
        return "GroupHost"
    owner = role(expr.value)
    if owner == "GroupNode":
        return {"sim": "GroupClock", "kernel": "GroupTimers"}.get(expr.attr)
    if owner == "GroupHost" and expr.attr == "network":
        return "GroupTransport"
    return None


def declared_protocols():
    tree = ast.parse((PACKAGE / "group.py").read_text())
    found = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and any(
                getattr(base, "id", None) == "Protocol" for base in cls.bases):
            found[cls.name] = {item.target.id if isinstance(item, ast.AnnAssign) else item.name
                               for item in cls.body
                               if isinstance(item, (ast.AnnAssign, ast.FunctionDef))}
    return found


def test_the_package_reads_its_host_and_nodes_exactly_through_the_protocols():
    declared = declared_protocols()
    assert set(declared) == {"GroupClock", "GroupTimers", "GroupNode", "GroupTransport",
                             "GroupHost"}
    used = {name: set() for name in declared}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                owner = role(node.value)
                if owner is not None:
                    used[owner].add(node.attr)
    assert used == declared


def test_no_module_of_the_package_imports_a_simulated_cluster_or_node():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("cluster", "node", "network", "nic", "kernel"), path
                assert "runtime_checkable" not in {alias.name for alias in node.names}
