"""Central-server objects: exactly one copy, every remote access is an RPC.

This is the primary-copy runtime system with replication switched off — the
configuration the paper's §2 argues against for read-mostly objects, and the
baseline the RW-RATIO benchmark sweeps against the fully replicated RTS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..rts.hybrid import HybridRts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.cluster import Cluster


class CentralServerRts(HybridRts):
    """A runtime system that never replicates: the primary copy is the only copy."""

    name = "central-server-rts"

    def __init__(self, cluster: "Cluster", protocol: str = "update") -> None:
        super().__init__(cluster, default_policy="primary", protocol=protocol,
                         dynamic_replication=False, replicate_everywhere=False)
