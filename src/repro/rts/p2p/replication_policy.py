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
from ..stats import AccessStats


@dataclass
class PolicyStats:
    """Counts of replication decisions taken."""

    copies_fetched: int = 0
    copies_dropped: int = 0


class ReplicationPolicy:
    """Per-(object, machine) access counters, and the hysteresis thresholds
    that turn their read/write ratio into fetch and drop decisions."""

    def __init__(self, params: ReplicationParams) -> None:
        self.params = params
        self._access: Dict[Tuple[int, int], AccessStats] = {}
        self.stats = PolicyStats()

    def access_stats(self, obj_id: int, node_id: int) -> AccessStats:
        key = (obj_id, node_id)
        stats = self._access.get(key)
        if stats is None:
            stats = self._access[key] = AccessStats()
        return stats

    def should_fetch_copy(self, obj_id: int, node_id: int, has_copy: bool) -> bool:
        """Should this machine (currently without a copy) fetch one?"""
        if has_copy or not self._crossed(obj_id, node_id, fetch=True):
            return False
        self.stats.copies_fetched += 1
        return True

    def should_drop_copy(self, obj_id: int, node_id: int, has_copy: bool, is_primary: bool) -> bool:
        """Should this machine (currently holding a copy) discard it?"""
        if not has_copy or is_primary or not self._crossed(obj_id, node_id, fetch=False):
            return False
        self.stats.copies_dropped += 1
        return True

    def _crossed(self, obj_id: int, node_id: int, fetch: bool) -> bool:
        """Has the pair's read/write ratio, over enough accesses, risen above
        the replicate threshold (``fetch``) or fallen below the drop one?
        A crossing decays the window, so newer accesses decide the next."""
        stats = self.access_stats(obj_id, node_id)
        if stats.accesses < self.params.min_accesses:
            return False
        if fetch:
            crossed = stats.ratio > self.params.replicate_threshold
        else:
            crossed = stats.ratio < self.params.drop_threshold
        if crossed:
            stats.decay(self.params.decay)
        return crossed
