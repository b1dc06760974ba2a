"""Dynamic replication policy for the point-to-point runtime system.

"The decision of where to replicate each object is done dynamically based on
runtime statistics.  Initially, only one copy of each object is maintained.
[...] When the ratio of reads to writes on any machine exceeds a certain
threshold, the runtime system concludes that [...] having a local copy is
worthwhile.  [...] when this ratio falls below another threshold, [...] the
local copy is then discarded."  (§3.2.2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ...config import ReplicationParams
from ..stats import AccessStats, ReplicationDecider


@dataclass
class PolicyStats:
    """Counts of replication decisions taken."""

    copies_fetched: int = 0
    copies_dropped: int = 0


class ReplicationPolicy:
    """Per-(object, machine) replication decisions with hysteresis."""

    def __init__(self, params: ReplicationParams) -> None:
        self.params = params
        self.decider = ReplicationDecider(params)
        self.stats = PolicyStats()

    # -- accounting -------------------------------------------------------- #

    def access_stats(self, obj_id: int, node_id: int) -> AccessStats:
        return self.decider.stats_for(obj_id, node_id)

    # -- decisions ---------------------------------------------------------- #

    def should_fetch_copy(self, obj_id: int, node_id: int, has_copy: bool) -> bool:
        """Should this machine (currently without a copy) fetch one?"""
        if has_copy:
            return False
        decision = self.decider.should_replicate(obj_id, node_id)
        if decision:
            self.stats.copies_fetched += 1
        return decision

    def should_drop_copy(self, obj_id: int, node_id: int, has_copy: bool,
                         is_primary: bool) -> bool:
        """Should this machine (currently holding a copy) discard it?"""
        if not has_copy or is_primary:
            return False
        decision = self.decider.should_drop(obj_id, node_id)
        if decision:
            self.stats.copies_dropped += 1
        return decision
