"""The Orca programming model.

Orca programs consist of *processes* and *shared data-objects*.  Processes
are created with ``fork`` and may run on any processor; objects are abstract
data types whose operations are indivisible and sequentially consistent, no
matter how many machines hold replicas.  This package provides that model as
a Python API (:mod:`repro.orca.api`, :mod:`repro.orca.process`,
:mod:`repro.orca.program`), a library of generally useful object types
(:mod:`repro.orca.builtin_objects`), and a small Orca-subset language front
end (:mod:`repro.orca.lang`).
"""

from .._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    "..rts.object_model": ("ObjectSpec", "operation"),
    ".api": ("BoundObject",),
    ".process": ("OrcaProcess",),
    ".program": ("OrcaProgram", "ProgramResult"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ObjectSpec",
    "operation",
    "BoundObject",
    "OrcaProcess",
    "OrcaProgram",
    "ProgramResult",
]
