"""The primary-copy mechanism's parts (no hardware broadcast required).

Objects have a *primary copy* on the machine that created them; other
machines may hold *secondary copies*.  All writes are sent to the primary,
which propagates them to the secondaries either by **invalidation** (discard
all other copies) or by a **two-phase update** (ship the operation, wait for
acknowledgements, then unlock).  Which machines hold copies is decided
dynamically from per-machine read/write-ratio statistics.
"""

from ..._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".directory": ("ObjectDirectory",),
    ".invalidation": ("InvalidationProtocol",),
    ".replication_policy": ("ReplicationPolicy",),
    ".update": ("TwoPhaseUpdateProtocol",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "InvalidationProtocol",
    "TwoPhaseUpdateProtocol",
    "ObjectDirectory",
    "ReplicationPolicy",
]

