"""Adapters that let the existing workload scenarios drive the real backend.

The :class:`~repro.workloads.scenarios.Scenario` classes are written against
the simulator's ``RuntimeSystem`` facade (``create_object`` / ``invoke``).
Three small adapters make them run unchanged across real processes:

* :class:`RecordingRts` (harness side) replays ``scenario.setup`` once to
  *record* the deterministic object table — names, spec classes, creation
  arguments, policies — that every node is forked holding.  Object ids are
  assigned sequentially from 1, exactly as the simulator's runtimes do, so
  id-hash shard placement matches.  The oracle replays the clients' request
  streams against the same stand-in's in-memory objects.
* :class:`RealRtsFacade` (node side) replays the same ``setup`` to *bind*
  handles by name against the locally installed replicas, then serves
  ``invoke`` from client OS threads: a read runs right there against the
  local replica, and a write is issued right there too, under the node's
  lock, the client then waiting for it outside the lock on a
  :class:`_Latch` that the write's completion callback releases.
* :class:`ClientProc` stands in for the simulator's per-client process
  token: it identifies the client and numbers its writes (the ``cseq`` the
  exactly-once machinery and the convergence checker key on).

Scenario kinds whose ``setup`` *writes* through the runtime (preloading a
catalog, say) are rejected up front with a clear error — the real backend
distributes initial state via creation arguments only.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple, Type

from ..errors import ConfigurationError, NetworkError
from ..rts.base import ObjectHandle
from ..rts.object_model import ObjectSpec, execute_operation
from .runtime import RealRuntime

#: Simulator management policies -> the real backend's protocol families.
POLICY_MAP = {
    None: "broadcast",
    "broadcast": "broadcast",
    "adaptive": "broadcast",
    "primary-update": "primary-update",
    "primary-invalidate": "primary-update",
}


def map_policy(policy: Any) -> str:
    try:
        return POLICY_MAP[policy]
    except KeyError:
        raise ConfigurationError(
            f"no real-backend mapping for management policy {policy!r}"
        ) from None


class RecordingRts:
    """Harness-side runtime stand-in: objects live in memory, operations
    apply at once.

    ``setup``'s creations are recorded as ``rows`` of the object table;
    ``setup`` runs with no process, and an invocation from no process is
    refused.  A client's invocations (``perform`` with a :class:`ClientProc`)
    run against the in-memory ``instances``, each write also recorded against
    its client in issue order (``client_writes``), the ground truth the
    oracle's exactly-once and FIFO checks compare applied logs against.
    """

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self.instances: Dict[int, ObjectSpec] = {}
        self.client_writes: Dict[Tuple[int, int], List[Tuple[str, str]]] = {}
        self.put_values: List[Any] = []
        self._ids = itertools.count(1)

    def create_object(self, proc: Any, spec_class: Type[ObjectSpec],
                      args: Tuple[Any, ...] = (),
                      kwargs: Optional[Dict[str, Any]] = None,
                      name: Optional[str] = None,
                      policy: Any = None) -> ObjectHandle:
        obj_id = next(self._ids)
        if name is None:
            name = f"{spec_class.__name__}#{obj_id}"
        kwargs = dict(kwargs or {})
        self.rows.append({
            "obj_id": obj_id,
            "name": name,
            "spec": spec_class,
            "args": list(args),
            "kwargs": kwargs,
            "policy": map_policy(policy),
        })
        self.instances[obj_id] = spec_class.create(tuple(args), dict(kwargs))
        return ObjectHandle(obj_id=obj_id, name=name, spec_class=spec_class)

    def invoke(self, proc: Optional[ClientProc], handle: ObjectHandle, op_name: str,
               args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None) -> Any:
        if proc is None:
            raise ConfigurationError(
                f"scenario setup invokes {op_name!r} on {handle.name!r}; the "
                "real backend only supports scenarios whose initial state comes "
                "from object creation arguments")
        op = handle.spec_class.operation_def(op_name)
        if op.is_write:
            self.client_writes.setdefault((proc.node_id, proc.client_id), []).append(
                (handle.name, op_name))
            if op_name == "put":
                self.put_values.append(args[0])
        return execute_operation(self.instances[handle.obj_id], op, tuple(args), kwargs)


class ClientProc:
    """Per-client token passed through ``scenario.perform`` as ``proc``."""

    def __init__(self, node_id: int, client_id: int) -> None:
        self.node_id = node_id
        self.client_id = client_id
        self._cseq = itertools.count(1)

    def next_cseq(self) -> int:
        return next(self._cseq)


class _Latch:
    """One write's wait: a lock taken before the write is issued, released
    by its completion callback (under the node lock) once the outcome is
    stored."""

    __slots__ = ("lock", "result", "error")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lock.acquire()
        self.result: Any = None
        self.error: Optional[BaseException] = None

    def __call__(self, result: Any, error: Optional[BaseException]) -> None:
        self.result, self.error = result, error
        self.lock.release()


class RealRtsFacade:
    """Node-side ``RuntimeSystem`` facade over a :class:`RealRuntime`.

    ``create_object`` binds handles by name against the installed replicas
    (setup replay); ``invoke`` is thread-safe.  Neither a read nor a write
    leaves the calling client thread; a write blocks it until the protocol
    has applied the operation on this node.
    """

    name = "real-sockets"

    def __init__(self, runtime: RealRuntime, op_timeout: float = 60.0) -> None:
        self.runtime = runtime
        self.op_timeout = op_timeout
        self._bind_lock = threading.Lock()

    def create_object(self, proc: Any, spec_class: Type[ObjectSpec],
                      args: Tuple[Any, ...] = (),
                      kwargs: Optional[Dict[str, Any]] = None,
                      name: Optional[str] = None,
                      policy: Any = None) -> ObjectHandle:
        if name is None:
            raise ConfigurationError(
                "the real backend binds objects by name; scenarios must "
                "name every object they create")
        with self._bind_lock:
            obj = self.runtime.object_by_name(name)
        if obj.spec_class is not spec_class:
            raise ConfigurationError(
                f"object {name!r} was installed as "
                f"{obj.spec_class.__name__}, not {spec_class.__name__}")
        return ObjectHandle(obj_id=obj.obj_id, name=name,
                            spec_class=spec_class)

    def invoke(self, proc: ClientProc, handle: ObjectHandle, op_name: str,
               args: Tuple[Any, ...] = (),
               kwargs: Optional[Dict[str, Any]] = None) -> Any:
        obj = self.runtime.objects[handle.obj_id]
        op = obj.spec_class.operation_def(op_name)
        if not op.is_write:
            return self.runtime.read(obj, op, tuple(args), kwargs)
        latch = _Latch()
        write = self.runtime.start_write(obj, op_name, args, kwargs,
                                         (proc.node_id, proc.client_id),
                                         proc.next_cseq(), latch)
        if not latch.lock.acquire(timeout=self.op_timeout):
            raise NetworkError(f"write {write.key} on {obj.name!r} still pending "
                               f"after {self.op_timeout}s")
        if latch.error is not None:
            raise latch.error
        return latch.result
