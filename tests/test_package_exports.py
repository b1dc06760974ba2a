"""The public surface of the lazily re-exporting packages.

Each package ``__init__`` imports a submodule only when one of its names is
first read (PEP 562).  In a fresh interpreter — where no name has been read
yet — every name in ``__all__`` must be listed by ``dir``, resolve with
``getattr`` and come with ``from package import *``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = (
    "repro",
    "repro.amoeba",
    "repro.net",
    "repro.orca",
    "repro.rts",
    "repro.rts.p2p",
    "repro.sim",
    "repro.workloads",
)

_PROBE = """
import importlib, json, sys
report = {}
for name in sys.argv[1:]:
    package = importlib.import_module(name)
    report[name] = {"all": list(package.__all__), "dir": dir(package)}
for name in sys.argv[1:]:
    package = sys.modules[name]
    report[name]["unresolved"] = [
        export for export in package.__all__ if not hasattr(package, export)]
    namespace = {}
    exec(f"from {name} import *", namespace)
    report[name]["star"] = sorted(namespace)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def surface():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", _PROBE, *PACKAGES], check=True,
                         capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export_before_it_is_read(surface, package):
    assert surface[package]["all"]
    assert sorted(set(surface[package]["all"]) - set(surface[package]["dir"])) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(surface, package):
    assert surface[package]["unresolved"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_brings_every_export(surface, package):
    assert sorted(set(surface[package]["all"]) - set(surface[package]["star"])) == []


def test_an_unknown_name_is_an_attribute_error():
    import repro.rts

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.rts.Nope
