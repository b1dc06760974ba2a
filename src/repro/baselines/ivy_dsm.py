"""A small page-based distributed shared memory in the style of Ivy (Li & Hudak).

The paper motivates shared data-objects by contrast with page-based DSM:
pages are a fixed, coarse unit (the whole page travels on every miss), and
writable pages cannot be replicated without weakening consistency.  This
module implements just enough of a write-invalidate, single-writer /
multiple-reader page protocol to serve as the benchmark baseline:

* a central manager (node 0) tracks, per page, the owner and the copy set;
* a read fault fetches the whole page from the owner and adds the reader to
  the copy set (read-only replication);
* a write fault invalidates every copy, transfers ownership, and gives the
  writer an exclusive writable copy.

The DSM supports multiple pages (one per shared datum), and two front ends:

* the raw key/value API (:meth:`IvyDsm.read` / :meth:`IvyDsm.write`) used by
  the RW-RATIO benchmark, which operates on page 0;
* :class:`IvyObjectRuntime`, an adapter implementing the common
  :class:`~repro.rts.base.RuntimeSystem` interface by placing each shared
  object's marshalled state on its own page — every read operation on a node
  without a valid copy faults in the *whole page*, and every write operation
  invalidates all other copies first.  This lets the workload subsystem run
  identical scenarios against the object runtimes and the DSM baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple, Type

from ..amoeba.cluster import Cluster
from ..amoeba.rpc import RpcReply, RpcRequest
from ..config import ClusterConfig
from ..rts.base import CallSite, ObjectHandle, RuntimeSystem
from ..rts.object_model import RETRY, ObjectSpec, execute_operation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.process import SimProcess

#: Size of one DSM page in bytes (the unit that travels on every fault).
PAGE_SIZE = 8192

PORT_READ_FAULT = "ivy.read_fault"
PORT_WRITE_FAULT = "ivy.write_fault"

#: Page id used by the raw key/value front end.
DEFAULT_PAGE = 0


@dataclass
class _PageState:
    """Manager-side bookkeeping for one page."""

    owner: int
    copyset: Set[int] = field(default_factory=set)
    content: Dict[str, Any] = field(default_factory=dict)
    #: True while a write grant is in flight but its content not yet written
    #: back.  Real Ivy forwards the fault to the owner, which relinquishes
    #: the page before the transfer; this flag models that serialization
    #: (without it, two overlapping write faults could both receive the
    #: pre-grant content and one update would be lost).
    transfer_pending: bool = False
    waiters: list = field(default_factory=list)


@dataclass
class _LocalPage:
    """One node's view of a page."""

    valid: bool = False
    writable: bool = False
    content: Dict[str, Any] = field(default_factory=dict)


class IvyDsm:
    """A multi-page write-invalidate DSM spanning all nodes of a cluster."""

    def __init__(self, cluster: Cluster, manager_node: int = 0) -> None:
        self.cluster = cluster
        self.manager_node = manager_node
        self._pages: Dict[int, _PageState] = {}
        #: (node_id, page_id) -> local view.
        self._local: Dict[Tuple[int, int], _LocalPage] = {}
        self.read_faults = 0
        self.write_faults = 0
        self.invalidations = 0
        self.create_page(DEFAULT_PAGE)
        rpc = cluster.rpc_for(manager_node)
        rpc.register_service(PORT_READ_FAULT, self._serve_read_fault, may_block=True)
        rpc.register_service(PORT_WRITE_FAULT, self._serve_write_fault, may_block=True)
        for node in cluster.nodes:
            node.register_handler("ivy.invalidate", self._on_invalidate)

    # ------------------------------------------------------------------ #
    # Page management
    # ------------------------------------------------------------------ #

    def create_page(self, page_id: int, content: Optional[Dict[str, Any]] = None) -> None:
        """Allocate a page owned by the manager, optionally pre-filled."""
        self._pages[page_id] = _PageState(owner=self.manager_node,
                                          copyset={self.manager_node},
                                          content=dict(content or {}))
        self._local[(self.manager_node, page_id)] = _LocalPage(
            valid=True, writable=True, content=self._pages[page_id].content)

    def _local_page(self, node_id: int, page_id: int) -> _LocalPage:
        key = (node_id, page_id)
        local = self._local.get(key)
        if local is None:
            local = _LocalPage()
            self._local[key] = local
        return local

    def has_valid_copy(self, node_id: int, page_id: int = DEFAULT_PAGE) -> bool:
        """True if ``node_id`` holds a valid (possibly read-only) copy."""
        return self._local_page(node_id, page_id).valid

    # ------------------------------------------------------------------ #
    # Manager side
    # ------------------------------------------------------------------ #

    def _await_transfer(self, page: _PageState) -> None:
        """Block the serving process until any in-flight write grant commits."""
        proc = self.cluster.sim.current_process
        while page.transfer_pending and proc is not None:
            page.waiters.append(proc)
            proc.suspend()

    def _serve_read_fault(self, request: RpcRequest) -> RpcReply:
        requester = request.payload["node"]
        page = self._pages[request.payload.get("page", DEFAULT_PAGE)]
        self._await_transfer(page)
        self.read_faults += 1
        page.copyset.add(requester)
        return RpcReply(payload=dict(page.content), size=PAGE_SIZE)

    def _serve_write_fault(self, request: RpcRequest) -> RpcReply:
        requester = request.payload["node"]
        page_id = request.payload.get("page", DEFAULT_PAGE)
        page = self._pages[page_id]
        self._await_transfer(page)
        self.write_faults += 1
        # Invalidate every other copy (their next access will fault again).
        for node_id in sorted(page.copyset - {requester}):
            self.invalidations += 1
            local = self._local_page(node_id, page_id)
            local.valid = False
            local.writable = False
            manager = self.cluster.node(self.manager_node)
            manager.send(manager.make_message(node_id, "ivy.invalidate", size=32))
        page.copyset = {requester}
        page.owner = requester
        page.transfer_pending = True
        return RpcReply(payload=dict(page.content), size=PAGE_SIZE)

    def _on_invalidate(self, msg) -> None:
        # Invalidation is applied eagerly manager-side (the message models the
        # network traffic and interrupt cost); nothing further to do here.
        pass

    # ------------------------------------------------------------------ #
    # Node-side faults (called from application processes)
    # ------------------------------------------------------------------ #

    def fault_read(self, proc: "SimProcess", node_id: int,
                   page_id: int = DEFAULT_PAGE) -> Dict[str, Any]:
        """Ensure a valid (read-only is enough) copy; returns its content."""
        local = self._local_page(node_id, page_id)
        if not local.valid:
            content = self.cluster.rpc_for(node_id).call(
                proc, self.manager_node, PORT_READ_FAULT,
                payload={"node": node_id, "page": page_id}, size=32)
            local.content = dict(content)
            local.valid = True
            local.writable = False
        return local.content

    def fault_write(self, proc: "SimProcess", node_id: int,
                    page_id: int = DEFAULT_PAGE) -> Dict[str, Any]:
        """Ensure an exclusive writable copy; returns its content."""
        local = self._local_page(node_id, page_id)
        if not local.writable:
            content = self.cluster.rpc_for(node_id).call(
                proc, self.manager_node, PORT_WRITE_FAULT,
                payload={"node": node_id, "page": page_id}, size=32)
            local.content = dict(content)
            local.valid = True
            local.writable = True
        return local.content

    def commit(self, node_id: int, page_id: int, content: Dict[str, Any]) -> None:
        """Install new content on this node's writable copy.

        The manager's authoritative content is kept in sync (zero-cost model:
        the page is written back lazily when the next fault fetches it).
        """
        local = self._local_page(node_id, page_id)
        local.content = content
        page = self._pages[page_id]
        page.content = content
        page.transfer_pending = False
        waiters, page.waiters = page.waiters, []
        for waiter in waiters:
            waiter.wake()

    # ------------------------------------------------------------------ #
    # Raw key/value front end (page 0; the RW-RATIO workload)
    # ------------------------------------------------------------------ #

    def read(self, proc, node_id: int, key: str) -> Optional[Any]:
        """Read ``key`` from the shared page at ``node_id``."""
        return self.fault_read(proc, node_id).get(key)

    def write(self, proc, node_id: int, key: str, value: Any) -> None:
        """Write ``key`` on the shared page at ``node_id`` (exclusive access)."""
        content = self.fault_write(proc, node_id)
        content[key] = value
        self.commit(node_id, DEFAULT_PAGE, content)


class IvyObjectRuntime(RuntimeSystem):
    """Shared objects on top of the Ivy DSM: one page per object.

    This adapter gives the page-based baseline the same
    :class:`~repro.rts.base.RuntimeSystem` interface as the broadcast and
    point-to-point runtimes, so workloads and benchmarks can sweep all of
    them uniformly.  The cost structure is exactly what the paper criticises:
    a read miss moves :data:`PAGE_SIZE` bytes however small the object, and a
    write stalls while every cached copy is invalidated.
    """

    name = "ivy-dsm-rts"

    def __init__(self, cluster: Cluster, manager_node: int = 0) -> None:
        super().__init__(cluster)
        self.dsm = IvyDsm(cluster, manager_node=manager_node)

    object_policy_name = "ivy-pages"

    def create_object(self, proc: "SimProcess", spec_class: Type[ObjectSpec],
                      args: Tuple[Any, ...] = (), kwargs: Optional[Dict[str, Any]] = None,
                      name: Optional[str] = None,
                      policy: Any = None) -> ObjectHandle:
        """Create a shared object whose state lives on a fresh DSM page.

        ``policy`` is accepted for interface uniformity and ignored: Ivy
        manages every object through page ownership.
        """
        handle = self._new_handle(spec_class, name)
        instance = spec_class.create(args, kwargs)
        self.dsm.create_page(handle.obj_id, instance.marshal_state())
        proc.advance(self.cost_model.cpu.operation_dispatch_cost)
        return handle

    def _invoke(self, proc: "SimProcess", site: CallSite, handle: ObjectHandle,
                args: Tuple[Any, ...], kwargs: Optional[Dict[str, Any]]) -> Any:
        nid = site.node.node_id
        op = site.op
        cpu = self.cost_model.cpu
        proc.advance(cpu.operation_dispatch_cost)
        if op.work_units:
            proc.compute(op.work_units)
        # Sampled before any fault: did this access hit a valid local copy?
        was_local = self.dsm.has_valid_copy(nid, handle.obj_id)
        while True:
            if op.is_write:
                state = self.dsm.fault_write(proc, nid, handle.obj_id)
                try:
                    instance = handle.spec_class()
                    instance.unmarshal_state(state)
                    result = execute_operation(instance, op, args, kwargs)
                except BaseException:
                    # Write back the untouched state so the page's pending
                    # transfer completes even when the operation raises;
                    # otherwise every later fault would block forever.
                    self.dsm.commit(nid, handle.obj_id, state)
                    raise
            else:
                state = self.dsm.fault_read(proc, nid, handle.obj_id)
                instance = handle.spec_class()
                instance.unmarshal_state(state)
                result = execute_operation(instance, op, args, kwargs)
            if result is RETRY:
                # Guarded operation not ready: poll again after a short wait
                # (pages have no change notification — another DSM weakness).
                # A write fault must still write back the untouched state so
                # the page's pending transfer completes.
                if op.is_write:
                    self.dsm.commit(nid, handle.obj_id, state)
                self.stats.guard_retries += 1
                proc.hold(cpu.protocol_cost * 4)
                continue
            if op.is_write:
                self.dsm.commit(nid, handle.obj_id, instance.marshal_state())
                self.stats.note_write(handle.obj_id)
                self.stats.rpc_writes += 1
            else:
                self.stats.note_read(handle.obj_id, local=was_local)
            return result


def run_ivy_workload(num_nodes: int = 8, ops_per_worker: int = 40,
                     read_fraction: float = 0.9, seed: int = 13) -> float:
    """Run the RW-RATIO counter workload on the Ivy baseline; returns virtual time."""
    cluster = Cluster(ClusterConfig(num_nodes=num_nodes, seed=seed))
    try:
        dsm = IvyDsm(cluster)

        def worker(node_id: int) -> None:
            proc = cluster.sim.current_process
            state = node_id * 2654435761 + 1
            for _ in range(ops_per_worker):
                proc.compute(200)
                state = (state * 1103515245 + 12345) % 2**31
                if (state % 1000) / 1000.0 < read_fraction:
                    dsm.read(proc, node_id, "counter")
                else:
                    current = dsm.read(proc, node_id, "counter") or 0
                    dsm.write(proc, node_id, "counter", current + 1)

        for node in cluster.nodes:
            node.kernel.spawn_thread(worker, node.node_id)
        return cluster.run()
    finally:
        cluster.shutdown()
