"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package lists each public name with the submodule that defines it; the
submodule is imported the first time the name is read.  A process that
imports one submodule directly — a real node imports ``amoeba.message`` but
never ``amoeba.cluster`` — therefore loads only what it uses, not every
sibling its package re-exports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, which re-exports
    the names ``exports`` lists under each (relative) submodule from it.

    A resolved name is stored in the package's namespace, so only its first
    read goes through ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__
    origin = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(submodule, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
