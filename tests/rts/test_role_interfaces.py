"""Each role module reaches the runtime only through the Protocol it declares.

The attributes a module reads or calls on the runtime (``rts.x``,
``self.rts.x``, ``layer.rts.x``) are exactly the members of that module's
Protocol, and one step further into another role (``rts.primary.x``) exactly
the members of the Protocol that annotates the step.  The Protocols are
typing-only: nothing checks them at run time, so this reads the source.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: module(s) -> the Protocol naming what they reach of the runtime.
INTERFACES = {
    ("rts/records.py",): "Reporting",
    ("rts/batching.py",): "BatchingRuntime",
    ("rts/primary.py",): "PrimaryRuntime",
    ("rts/takeover.py",): "TakeoverRuntime",
    ("rts/membership.py",): "MembershipRuntime",
    ("rts/placement.py",): "PlacementRuntime",
    ("rts/switch.py",): "SwitchRuntime",
    ("txn/__init__.py", "txn/coordinator.py", "txn/participant.py",
     "txn/recovery.py"): "TxnRuntime",
}


def is_runtime(node: ast.AST) -> bool:
    """``rts``, ``self.rts``, ``layer.rts`` or ``self.layer.rts``."""
    if isinstance(node, ast.Name):
        return node.id == "rts"
    return isinstance(node, ast.Attribute) and node.attr == "rts"


def protocols(tree: ast.Module):
    """Protocol class name -> {member: annotation source or None}."""
    found = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and any(
                getattr(base, "id", None) == "Protocol" for base in cls.bases):
            members = {}
            for item in cls.body:
                if isinstance(item, ast.AnnAssign):
                    members[item.target.id] = ast.unparse(item.annotation).strip("'\"")
                elif isinstance(item, ast.FunctionDef):
                    members[item.name] = None
            found[cls.name] = members
    return found


@pytest.mark.parametrize("modules,interface", sorted(INTERFACES.items()))
def test_a_role_reaches_the_runtime_exactly_through_its_protocol(modules, interface):
    trees = [ast.parse((SRC / name).read_text()) for name in modules]
    declared = {}  # a step may use another role module's Protocol ...
    for others in INTERFACES:
        for name in others:
            declared.update(protocols(ast.parse((SRC / name).read_text())))
    for tree in trees:  # ... but a module's own come first
        declared.update(protocols(tree))
    used = {}  # runtime member -> members reached one step further
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and is_runtime(node.value):
                further = used.setdefault(node.attr, set())
                further.update(parent.attr for parent in ast.walk(tree)
                               if isinstance(parent, ast.Attribute)
                               and parent.value is node)
    runtime = declared[interface]
    assert set(used) == set(runtime)
    for name, annotation in runtime.items():
        if annotation in declared:  # one step into another role
            assert used[name] == set(declared[annotation]), name
    for tree in trees:
        assert "runtime_checkable" not in ast.unparse(tree)
        assert "HybridRts" not in {alias.name for node in ast.walk(tree)
                                   if isinstance(node, ast.ImportFrom)
                                   for alias in node.names}
