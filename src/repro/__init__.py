"""repro — reproduction of *Programming a Distributed System Using Shared Objects*.

The package implements, in simulation, the full stack described by
Tanenbaum, Bal and Kaashoek (HPDC 1993):

* ``repro.sim`` — a deterministic discrete-event simulation kernel;
* ``repro.amoeba`` — an Amoeba-like substrate: nodes, a 10 Mb/s Ethernet
  model, RPC, and the PB/BB totally-ordered reliable broadcast protocols;
* ``repro.rts`` — the shared data-object runtime systems (broadcast RTS and
  point-to-point RTS with invalidation / two-phase update and dynamic
  replication);
* ``repro.orca`` — the Orca programming model (shared abstract data types,
  processes, ``fork``) plus a small Orca-subset language front end;
* ``repro.apps`` — the paper's applications: TSP, Arc Consistency, computer
  chess (Oracol) and ATPG;
* ``repro.baselines`` — comparison points (central-server objects, page-based
  DSM, explicit message passing);
* ``repro.metrics`` — speedup curves and figures, latency summaries and
  report tables used by the benchmark suite.

Quickstart
----------

::

    from repro import ClusterConfig, OrcaProgram, ObjectSpec, operation

    class Counter(ObjectSpec):
        def init(self):
            self.value = 0

        @operation(write=True)
        def increment(self):
            self.value += 1
            return self.value

        @operation(write=False)
        def read(self):
            return self.value

    def worker(proc, counter):
        for _ in range(10):
            counter.increment()
            proc.compute(100)

    def main(proc):
        counter = proc.new_object(Counter, name="counter")
        workers = [proc.fork(worker, counter, on_node=i) for i in range(4)]
        proc.join_all(workers)
        return counter.read()

    program = OrcaProgram(main, config=ClusterConfig(num_nodes=4))
    result = program.run()
    assert result.value == 40
"""

from .config import (
    BroadcastParams,
    ClusterConfig,
    CostModel,
    CpuParams,
    NetworkParams,
    ReplicationParams,
)
from ._lazy import lazy_exports as _lazy_exports
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ClusterConfig",
    "CostModel",
    "NetworkParams",
    "CpuParams",
    "BroadcastParams",
    "ReplicationParams",
    # Re-exported lazily below:
    "ObjectSpec",
    "operation",
    "OrcaProgram",
    "OrcaProcess",
    "ProgramResult",
    "WorkloadRunner",
    "WorkloadSpec",
    "WorkloadReport",
    "ScenarioRegistry",
]


#: The Orca and workload layers import the RTS and Amoeba packages; reading
#: their names lazily keeps ``import repro`` cheap for users who only need
#: the configuration types or one layer of the stack.
_EXPORTS = {
    ".rts.object_model": ("ObjectSpec", "operation"),
    ".orca.process": ("OrcaProcess",),
    ".orca.program": ("OrcaProgram", "ProgramResult"),
    ".workloads.runner": ("WorkloadRunner", "WorkloadReport"),
    ".workloads.spec": ("WorkloadSpec",),
    ".workloads.scenarios": ("ScenarioRegistry",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
