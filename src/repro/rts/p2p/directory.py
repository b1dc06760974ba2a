"""Object directory: which machine holds the primary copy of each object.

In the real Orca runtime this knowledge is distributed by the compiler and
runtime; in the reproduction the directory is a shared bookkeeping structure
(it is consulted without charging communication costs, mirroring the fact
that primary locations are static and known to every machine after object
creation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ...errors import RtsError


@dataclass
class DirectoryEntry:
    """Placement information for one object."""

    obj_id: int
    primary_node: int
    #: Every machine currently holding a copy (always includes the primary).
    copyset: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.copyset.add(self.primary_node)


class ObjectDirectory:
    """Maps object ids to their primary location and current copy set."""

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def register(self, obj_id: int, primary_node: int) -> DirectoryEntry:
        if obj_id in self._entries:
            raise RtsError(f"object {obj_id} already registered in the directory")
        entry = DirectoryEntry(obj_id=obj_id, primary_node=primary_node)
        self._entries[obj_id] = entry
        return entry

    def entry(self, obj_id: int) -> DirectoryEntry:
        try:
            return self._entries[obj_id]
        except KeyError:
            raise RtsError(f"object {obj_id} is not registered in the directory") from None

    def primary_of(self, obj_id: int) -> int:
        return self.entry(obj_id).primary_node

    def copyset_of(self, obj_id: int) -> Set[int]:
        return set(self.entry(obj_id).copyset)

    def secondaries_of(self, obj_id: int) -> List[int]:
        entry = self.entry(obj_id)
        return sorted(entry.copyset - {entry.primary_node})

    def add_copy(self, obj_id: int, node_id: int) -> None:
        self.entry(obj_id).copyset.add(node_id)

    def remove_copy(self, obj_id: int, node_id: int) -> None:
        entry = self.entry(obj_id)
        if node_id == entry.primary_node:
            raise RtsError("the primary copy cannot be dropped")
        entry.copyset.discard(node_id)

    def seat(self, obj_id: int, primary: int, copyset) -> None:
        """(Re)seat an object: its primary and copy holders from a switch on."""
        entry = self._entries.get(obj_id) or self.register(obj_id, primary)
        entry.primary_node, entry.copyset = primary, set(copyset) | {primary}

    def forget(self, node_id: int, obj_ids: Optional[Iterable[int]] = None) -> None:
        """Drop ``node_id`` from the copysets of ``obj_ids`` (default: every
        object); the objects whose primary seat it holds keep it."""
        for obj_id in self._entries if obj_ids is None else obj_ids:
            entry = self._entries.get(obj_id)
            if entry is not None and entry.primary_node != node_id:
                entry.copyset.discard(node_id)

    def objects(self) -> List[int]:
        return sorted(self._entries)
