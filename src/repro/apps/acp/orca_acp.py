"""The Orca Arc Consistency program (§4.2 of the paper).

Shared objects, mirroring the paper's description:

* ``domain`` — an array of value sets, one per variable, with operations to
  read a variable's set and to shrink it;
* ``work`` — the Booleans saying which variables must be rechecked, plus the
  per-worker idle flags the paper keeps in its ``result`` object.  Both live
  in one shared object so the distributed-termination check ("every worker
  idle and nothing flagged") is a single operation evaluated in the object's
  total write order — keeping them separate is racy, because all-idle and
  no-pending can then be observed from two different points in the order;
* ``failed`` — a Boolean set when some variable's set becomes empty (no
  solution exists).

The variables are statically partitioned among the workers.  All four objects
are replicated on every processor, so every domain/work update is broadcast —
this is exactly the CPU overhead the paper blames for ACP's speedups being
lower than the hypercube implementation's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...config import ClusterConfig
from ...orca.builtin_objects import BoolObject
from ...orca.process import OrcaProcess
from ...orca.program import OrcaProgram, ProgramResult
from ...rts.object_model import ObjectSpec, operation
from .problem import AcpProblem, revise


class DomainObject(ObjectSpec):
    """The shared array of per-variable value sets."""

    def init(self, domains: Sequence[FrozenSet[int]] = ()) -> None:
        self.domains: List[FrozenSet[int]] = [frozenset(d) for d in domains]

    @operation(write=False)
    def get_domain(self, var: int) -> FrozenSet[int]:
        return self.domains[var]

    @operation(write=False)
    def sizes(self) -> List[int]:
        return [len(d) for d in self.domains]

    @operation(write=True)
    def restrict(self, var: int, new_domain: FrozenSet[int]) -> Tuple[bool, bool]:
        """Shrink variable ``var``'s set; returns (changed, now_empty)."""
        current = self.domains[var]
        new_domain = frozenset(new_domain) & current
        if new_domain == current:
            return False, len(current) == 0
        self.domains[var] = new_domain
        return True, len(new_domain) == 0


class WorkObject(ObjectSpec):
    """The shared 'needs rechecking' flags plus the termination state.

    Distributed termination needs to see "every worker is idle AND no
    variable is flagged" *atomically*.  Reading those from two separate
    shared objects is racy: a worker can observe all-ready before another
    worker's busy-announcement arrives, and no-pending after that worker's
    ``take`` but before its re-``flag`` — and exit while work for its
    partition is still in flight.  Folding both into one object makes the
    check a single operation in the object's total write order, which every
    replica evaluates at the same point: once ``done`` is set, no later
    operation can ever flag new work.
    """

    def init(self, num_variables: int = 0, num_workers: int = 0) -> None:
        self.flags = [True] * num_variables
        self.ready = [False] * num_workers
        self.done = False

    @operation(write=False)
    def pending_in(self, variables: Tuple[int, ...]) -> List[int]:
        """Which of ``variables`` are currently flagged (local read)."""
        return [v for v in variables if self.flags[v]]

    @operation(write=True)
    def take(self, variables: Tuple[int, ...], worker: int) -> List[int]:
        """Atomically fetch-and-clear the flags of ``variables``.

        Taking work also marks the worker busy, in the same totally-ordered
        operation, so the termination check can never see a stale idle flag
        for a worker that is about to generate more work.
        """
        taken = [v for v in variables if self.flags[v]]
        for v in taken:
            self.flags[v] = False
        if taken:
            self.ready[worker] = False
        return taken

    @operation(write=True)
    def flag(self, variables: Tuple[int, ...]) -> int:
        """Mark ``variables`` as needing a recheck; returns how many were newly set."""
        newly = 0
        for v in variables:
            if not self.flags[v]:
                self.flags[v] = True
                newly += 1
        return newly

    @operation(write=True)
    def offer_termination(self, worker: int) -> bool:
        """Declare ``worker`` idle and test the termination condition.

        Applied in the object's total order, so "all workers idle and
        nothing flagged" is evaluated against the same state on every
        replica; the verdict is latched in ``done``.
        """
        self.ready[worker] = True
        if not self.done and all(self.ready) and not any(self.flags):
            self.done = True
        return self.done

    @operation(write=False)
    def finished(self) -> bool:
        return self.done


@dataclass
class AcpResult:
    """Application-level answer of the parallel ACP program."""

    domain_sizes: List[int]
    consistent: bool
    total_revisions: int


def partition_variables(num_variables: int, num_workers: int) -> List[Tuple[int, ...]]:
    """Static block partition of the variables over the workers."""
    partitions: List[Tuple[int, ...]] = []
    base = num_variables // num_workers
    extra = num_variables % num_workers
    start = 0
    for worker in range(num_workers):
        size = base + (1 if worker < extra else 0)
        partitions.append(tuple(range(start, start + size)))
        start += size
    return partitions


def acp_worker(proc: OrcaProcess, problem: AcpProblem, domain, work, failed,
               my_vars: Tuple[int, ...], poll_interval: float = 0.002,
               worker_id: int = 0) -> Dict[str, int]:
    """One ACP worker, responsible for the variables in ``my_vars``."""
    revisions = 0
    am_ready = False
    while True:
        if failed.read() or work.finished():
            break
        # Cheap local read first; only pay for the fetch-and-clear write when
        # there is something to take (taking also marks this worker busy).
        if work.pending_in(my_vars):
            pending = work.take(my_vars, worker_id)
            if pending:
                am_ready = False
        else:
            pending = []
        if pending:
            stop = False
            for var in pending:
                for constraint in problem.constraints_involving(var):
                    other = (constraint.var_b if constraint.var_a == var
                             else constraint.var_a)
                    d_var = domain.get_domain(var)
                    d_other = domain.get_domain(other)
                    revised, checks = revise(d_var, d_other, constraint, var)
                    proc.compute(checks + 2)
                    revisions += 1
                    if revised != d_var:
                        changed, empty = domain.restrict(var, revised)
                        if empty:
                            failed.set(True)
                            stop = True
                            break
                        if changed:
                            neighbours = problem.neighbours(var)
                            work.flag(tuple(neighbours))
                if stop:
                    break
            if stop:
                break
            continue
        # No local work: offer termination once per idle episode.  The offer
        # is a totally-ordered write that declares this worker idle and
        # evaluates "all idle and nothing flagged" atomically inside the
        # work object, so no freshly flagged work can slip past the check.
        # While idle, the cheap local ``finished()`` read at the loop head
        # observes a verdict latched by whichever worker went idle last;
        # only ``take`` (our own action) can clear our idle flag again.
        if not am_ready:
            if work.offer_termination(worker_id):
                break
            am_ready = True
        proc.hold(poll_interval)
    return {"revisions": revisions}


def acp_main(proc: OrcaProcess, problem: AcpProblem,
             num_workers: Optional[int] = None,
             poll_interval: float = 0.002) -> AcpResult:
    """The Orca main process for ACP.

    The paper's program "uses at least two processors, since the master
    process that distributes the work runs on a separate processor"; here the
    master also runs on processor 0 and workers occupy the remaining
    processors when more than one is available.
    """
    workers_wanted = num_workers
    if workers_wanted is None:
        workers_wanted = max(1, proc.num_nodes - 1) if proc.num_nodes > 1 else 1

    domain = proc.new_object(DomainObject, tuple(problem.domains), name="acp-domain")
    work = proc.new_object(WorkObject, problem.num_variables, workers_wanted,
                           name="acp-work")
    failed = proc.new_object(BoolObject, False, name="acp-failed")

    partitions = partition_variables(problem.num_variables, workers_wanted)
    start_node = 1 if proc.num_nodes > 1 else 0
    workers = []
    for worker_id, my_vars in enumerate(partitions):
        node = (start_node + worker_id) % proc.num_nodes if proc.num_nodes > 1 else 0
        workers.append(
            proc.fork(acp_worker, problem, domain, work, failed, my_vars,
                      poll_interval, on_node=node, worker_id=worker_id,
                      name=f"acp-worker[{worker_id}]")
        )
    results = proc.join_all(workers)

    return AcpResult(
        domain_sizes=domain.sizes(),
        consistent=not failed.read(),
        total_revisions=sum(r["revisions"] for r in results),
    )


def run_acp_program(problem: AcpProblem, num_procs: int, seed: int = 17,
                    num_workers: Optional[int] = None,
                    rts: str = "broadcast",
                    rts_options: Optional[Dict[str, Any]] = None,
                    config: Optional[ClusterConfig] = None) -> ProgramResult:
    """Convenience wrapper used by the examples, tests and benchmarks."""
    cluster_config = (config or ClusterConfig()).with_nodes(num_procs).with_seed(seed)
    program = OrcaProgram(acp_main, cluster_config, rts=rts, rts_options=rts_options)
    return program.run(problem, num_workers)
