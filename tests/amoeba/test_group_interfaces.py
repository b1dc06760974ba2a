"""The broadcast group reaches its host and nodes only through its Protocols.

``amoeba/broadcast/group.py`` declares what ``GroupMember``, ``Sequencer``,
``Election`` and ``BroadcastGroup`` read of a node (``GroupNode``, with its
clock and timers) and of their host (``GroupHost``, with its transport).  The
attributes the package reads on those objects are exactly the members of
those Protocols, so a simulated cluster and a real node process can both
host it and the simulator's global view of the cluster cannot creep back
in.  The Protocols are typing-only, so this reads the source.

The same reading holds the seat to one owner: once ``BroadcastGroup`` is
built, only ``election.py`` changes it.
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


SEAT_FIELDS = {"sequencer_node_id", "seat_start", "epoch", "sequencer"}


def assigned_attributes(tree: ast.AST):
    """(attribute, line) of every attribute assigned under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                        yield sub.attr, sub.lineno


def test_only_the_election_changes_the_seat_once_the_group_is_built():
    changed = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "election.py":
            continue
        tree = ast.parse(path.read_text())
        built = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "BroadcastGroup":
                init = next(f for f in cls.body
                            if isinstance(f, ast.FunctionDef) and f.name == "__init__")
                built = {line for _, line in assigned_attributes(init)}
        changed += [f"{path.name}:{line} {attr}" for attr, line in assigned_attributes(tree)
                    if attr in SEAT_FIELDS and line not in built]
    assert changed == []
    election = {attr for attr, _ in assigned_attributes(ast.parse(
        (PACKAGE / "election.py").read_text()))}
    assert SEAT_FIELDS <= election
