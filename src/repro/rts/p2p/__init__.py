"""The primary-copy mechanism's parts (no hardware broadcast required).

Objects have a *primary copy* on the machine that created them; other
machines may hold *secondary copies*.  The write path and both coherence
protocols, invalidation and two-phase update, are in
:mod:`repro.rts.primary`.  This package holds what that path runs over: the
object directory, the fan-out core (exactly-once write ids, acknowledgement
debts, switch epochs) and the dynamic replication policy, which decides
from per-machine read/write-ratio statistics which machines hold copies.
"""

from ..._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".directory": ("ObjectDirectory",),
    ".replication_policy": ("ReplicationPolicy",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ObjectDirectory",
    "ReplicationPolicy",
]
