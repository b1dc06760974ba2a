"""Shared data-object runtime systems (the paper's core contribution).

One unified runtime — :class:`~repro.rts.hybrid.HybridRts` — manages shared
objects under per-object, runtime-switchable **management policies** (see
:mod:`repro.rts.policy`):

* ``"broadcast"`` — the object is replicated on every machine; reads are
  purely local; writes are applied everywhere via the totally-ordered
  broadcast layer (operation shipping), which directly yields sequential
  consistency.
* ``"primary-invalidate"`` / ``"primary-update"`` — the object has a primary
  copy and dynamically managed secondary copies; writes go to the primary
  and are propagated by invalidation or by the two-phase update protocol;
  replication decisions are driven by per-machine read/write-ratio
  statistics.
* ``"adaptive"`` — an :class:`~repro.rts.policy.AdaptivePolicy` controller
  watches the object's read/write ratio and migrates it between the fixed
  policies at run time, in the object's broadcast total order.

Everything exposes the same :class:`ObjectHandle`-based interface, so the
Orca programming layer and the applications are agnostic of policy choices.
"""

from .._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".object_model": ("ObjectSpec", "OperationDef", "operation"),
    ".manager": ("ObjectManager", "Replica"),
    ".hybrid": ("HybridRts",),
    ".records": ("MigrationRecord", "ShardMoveRecord"),
    ".policy": (
        "AdaptiveParams",
        "AdaptivePolicy",
        "BroadcastReplicated",
        "ManagementPolicy",
        "PrimaryCopyInvalidate",
        "PrimaryCopyUpdate",
        "management_policy",
    ),
    ".sharding": (
        "BatchingParams",
        "ExplicitPlacement",
        "HashPlacement",
        "RebalanceMove",
        "RebalanceParams",
        "RebalancePlanner",
        "ShardRouter",
        "ShardingPolicy",
    ),
    ".stats": ("AccessStats", "ShardStats"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ObjectSpec",
    "OperationDef",
    "operation",
    "ObjectManager",
    "Replica",
    "HybridRts",
    "MigrationRecord",
    "ShardMoveRecord",
    "ManagementPolicy",
    "BroadcastReplicated",
    "PrimaryCopyInvalidate",
    "PrimaryCopyUpdate",
    "AdaptivePolicy",
    "AdaptiveParams",
    "management_policy",
    "AccessStats",
    "ShardStats",
    "BatchingParams",
    "ShardingPolicy",
    "HashPlacement",
    "ExplicitPlacement",
    "ShardRouter",
    "RebalanceMove",
    "RebalanceParams",
    "RebalancePlanner",
]
