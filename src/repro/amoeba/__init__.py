"""The Amoeba-like distributed substrate.

This package simulates the parts of the Amoeba microkernel that the shared
data-object runtime systems rely on:

* :mod:`repro.amoeba.network` — the interconnect (a shared-medium Ethernet
  model with hardware broadcast, and a switched point-to-point variant);
* :mod:`repro.amoeba.nic` — per-node network interfaces with interrupt and
  protocol-processing costs;
* :mod:`repro.amoeba.node` / :mod:`repro.amoeba.kernel` — processor-pool
  nodes running a per-node microkernel (threads and timers);
* :mod:`repro.amoeba.rpc` — transparent remote procedure call;
* :mod:`repro.amoeba.broadcast` — the PB/BB totally-ordered reliable
  broadcast protocols built around a sequencer.
"""

from .._lazy import lazy_exports as _lazy_exports

_EXPORTS = {
    ".cluster": ("Cluster",),
    ".message": ("Message", "estimate_size"),
    ".network": ("EthernetNetwork", "SwitchedNetwork"),
    ".node": ("Node",),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Cluster",
    "Message",
    "estimate_size",
    "EthernetNetwork",
    "SwitchedNetwork",
    "Node",
]
