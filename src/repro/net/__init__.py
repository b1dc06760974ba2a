"""The real-process execution backend.

Everything in :mod:`repro.sim` / :mod:`repro.amoeba` runs the shared-object
protocols inside one deterministic discrete-event simulator.  This package
runs the *same* protocol shapes — sharded fixed-sequencer total-order
broadcast, per-object management policies (replicated-broadcast and
primary-copy with takeover), per-client FIFO with exactly-once delivery —
across real OS processes talking UDP on the loopback interface, with
the simulator kept as the deterministic *oracle*: a sim run of the identical
workload pins down the request streams and the equivalent final state the
real run must converge to.

Layout
------
``wire``          length-prefixed JSON framing of the existing
                  :class:`~repro.amoeba.message.Message` type
``udp``           :class:`UdpTransport` — messages over UDP, one frame-sized
                  datagram read per readiness of the node's loop
``host``          :class:`RealNode` — the node's ``select`` loop, hosting the
                  simulator's broadcast groups (one member per shard)
``runtime``       the per-process RTS layer above them (writes, the
                  primary path, heartbeats, takeover)
``rts_adapter``   a RuntimeSystem facade so the existing workload
                  :class:`~repro.workloads.scenarios.Scenario` classes run
                  unchanged against the real backend
``node_process``  the ``python -m repro.net.node_process`` child entry point
``control``       JSON-lines control plane between harness and nodes
``harness``       :class:`RealCluster` — spawns node processes, drives
                  workloads, kills nodes, collects state
``runner``        :func:`run_real_workload` producing the same
                  :class:`~repro.workloads.runner.WorkloadReport` the sim
                  backend produces
``oracle``        record a sim run, replay it for real, check convergence
"""

from .._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".harness": ("RealCluster", "RealClusterConfig"),
    ".oracle": ("check_convergence", "expected_issued_writes", "record_sim_oracle"),
    ".runner": ("run_real_workload",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "RealCluster",
    "RealClusterConfig",
    "check_convergence",
    "expected_issued_writes",
    "record_sim_oracle",
    "run_real_workload",
]
