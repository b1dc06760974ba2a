"""The per-machine object manager.

Every machine runs an object manager holding the replicas stored on that
machine.  Reads bypass the manager (they execute directly on the local
replica); writes and incoming protocol messages go through the manager, which
applies them one at a time, in order, while the replica is briefly locked —
mirroring the structure the paper describes for the broadcast RTS.

The manager also provides the *change notification* hook used to implement
guarded (blocking) operations: processes waiting for an object's state to
change register a callback that fires after the next applied write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..errors import RtsError, UnknownObjectError
from .object_model import RETRY, ObjectSpec, OperationDef, execute_operation
from .p2p.fanout import AppliedTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.node import Node


@dataclass
class Replica:
    """One machine's copy of a shared object: the record both drivers hold.

    Only the identity is a constructor argument, so a driver's own record
    can extend this one with required fields of its own.
    """

    obj_id: int
    name: str
    instance: ObjectSpec
    is_primary: bool = field(default=False, init=False)
    valid: bool = field(default=True, init=False)
    locked: bool = field(default=False, init=False)
    #: Number of write operations applied to this replica.
    version: int = field(default=0, init=False)
    #: The exactly-once table of the primary-copy path: it makes a client's
    #: re-issue after a primary crash idempotent, so it travels with every
    #: copy (fetches, update fan-outs, relocation and takeover switches).
    applied: AppliedTable = field(default_factory=dict, init=False)
    #: Primary-write commits in flight at this copy (a freeze drains them).
    inflight: int = field(default=0, init=False)
    #: Callbacks to invoke after the next state change (guard retries).
    _change_waiters: List[Callable[[], None]] = field(default_factory=list, init=False)

    def snapshot(self) -> Tuple[Any, int, AppliedTable]:
        """``(state, version, applied table)``: the copy as it travels."""
        return self.instance.marshal_state(), self.version, dict(self.applied)

    def restore(self, snapshot: Tuple[Any, int, AppliedTable], is_primary: bool) -> None:
        """Install a :meth:`snapshot` in place, so processes already waiting
        on this replica keep their hooks."""
        state, self.version, table = snapshot
        self.instance.unmarshal_state(state)
        self.applied = dict(table)
        self.valid, self.locked, self.is_primary = True, False, is_primary
        self.notify_changed()

    def on_next_change(self, callback: Callable[[], None]) -> None:
        self._change_waiters.append(callback)

    def notify_changed(self) -> None:
        waiters, self._change_waiters = self._change_waiters, []
        for callback in waiters:
            callback()


@dataclass
class ManagerStats:
    """Operation counts seen by one object manager."""

    local_reads: int = 0
    local_writes_applied: int = 0
    remote_updates_applied: int = 0
    invalidations: int = 0
    guard_retries: int = 0


class ObjectManager:
    """Holds and updates the replicas resident on one machine."""

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.node_id = node.node_id
        self.replicas: Dict[int, Replica] = {}
        self.stats = ManagerStats()

    # ------------------------------------------------------------------ #
    # Replica lifecycle
    # ------------------------------------------------------------------ #

    def install(self, obj_id: int, name: str, instance: ObjectSpec,
                is_primary: bool = False, version: int = 0) -> Replica:
        """Install a replica of an object on this machine."""
        if obj_id in self.replicas and self.replicas[obj_id].valid:
            raise RtsError(
                f"object {name!r} (id {obj_id}) already present on node {self.node_id}"
            )
        replica = Replica(obj_id, name, instance)
        replica.is_primary, replica.version = is_primary, version
        self.replicas[obj_id] = replica
        return replica

    def discard(self, obj_id: int) -> None:
        """Drop this machine's replica (dynamic replication / invalidation)."""
        self.replicas.pop(obj_id, None)

    def invalidate(self, obj_id: int) -> None:
        """Mark the local copy invalid without forgetting the waiters."""
        replica = self.replicas.get(obj_id)
        if replica is not None:
            replica.valid = False
            self.stats.invalidations += 1

    def has_valid_copy(self, obj_id: int) -> bool:
        replica = self.replicas.get(obj_id)
        return replica is not None and replica.valid

    def get(self, obj_id: int) -> Replica:
        replica = self.replicas.get(obj_id)
        if replica is None:
            raise UnknownObjectError(
                f"node {self.node_id} holds no replica of object id {obj_id}"
            )
        return replica

    # ------------------------------------------------------------------ #
    # Operation execution
    # ------------------------------------------------------------------ #

    def execute_read(self, obj_id: int, op: OperationDef, args: Tuple[Any, ...],
                     kwargs: Optional[Dict[str, Any]] = None) -> Any:
        """Execute a read operation directly against the local replica."""
        return self.read_from(self.get(obj_id), op, args, kwargs)

    def read_from(self, replica: Replica, op: OperationDef, args: Tuple[Any, ...],
                  kwargs: Optional[Dict[str, Any]] = None) -> Any:
        """:meth:`execute_read` for a caller that already holds the replica."""
        if not replica.valid:
            raise RtsError(
                f"read of invalidated replica of {replica.name!r} on node {self.node_id}"
            )
        self.stats.local_reads += 1
        return execute_operation(replica.instance, op, args, kwargs)

    def apply_write(self, obj_id: int, op: OperationDef, args: Tuple[Any, ...],
                    kwargs: Optional[Dict[str, Any]] = None,
                    local_origin: bool = False) -> Any:
        """Apply a write operation to the local replica (in protocol order)."""
        return self.apply_write_to(self.get(obj_id), op, args, kwargs, local_origin)

    def apply_write_to(self, replica: Replica, op: OperationDef,
                       args: Tuple[Any, ...],
                       kwargs: Optional[Dict[str, Any]] = None,
                       local_origin: bool = False) -> Any:
        """:meth:`apply_write` for a caller that already holds the replica.

        The replica is locked for the duration of the operation, the version
        counter is bumped, and change waiters are notified.  Returns the
        operation result or :data:`RETRY` when the guard rejected it.
        """
        replica.locked = True
        try:
            result = execute_operation(replica.instance, op, args, kwargs)
        finally:
            replica.locked = False
        if result is RETRY:
            self.stats.guard_retries += 1
            return RETRY
        replica.version += 1
        if local_origin:
            self.stats.local_writes_applied += 1
        else:
            self.stats.remote_updates_applied += 1
        replica.notify_changed()
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.replicas)
