"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures distinctly from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when the simulator runs out of events while processes are blocked."""


class ProcessError(SimulationError):
    """Raised when a simulated process misbehaves (e.g. crashes with an exception)."""


class NetworkError(ReproError):
    """Errors raised by the simulated network substrate."""


class RoutingError(NetworkError):
    """Raised when a message is addressed to an unknown node."""


class RpcError(ReproError):
    """Errors raised by the Amoeba RPC layer."""


class RpcTimeoutError(RpcError):
    """Raised when an RPC does not complete within its timeout."""


class RpcPeerDeadError(RpcError):
    """Raised when the failure detector reports the RPC's server crashed.

    The cluster wires every node crash to :meth:`RpcEndpoint.fail_pending_to`,
    so a client blocked on a call to the dead machine is woken with this
    error instead of hanging on a reply that can never arrive — the
    simulator's stand-in for a failure-detection service.
    """


class BroadcastError(ReproError):
    """Errors raised by the totally-ordered broadcast protocols."""


class RtsError(ReproError):
    """Errors raised by the shared-object runtime systems."""


class TransactionAborted(RtsError):
    """Raised by ``transact(..., on_guard="abort")`` when a guard rejects
    the group; no participant applied anything."""


class UnknownObjectError(RtsError):
    """Raised when an operation references an object id not registered locally."""


class UnknownOperationError(RtsError):
    """Raised when an operation name is not defined by the object's type."""


class ConsistencyViolationError(RtsError):
    """Raised by the consistency checker when a history is not sequentially consistent."""


class OrcaError(ReproError):
    """Errors raised by the Orca programming layer."""


class ApplicationError(ReproError):
    """Errors raised by the example applications."""


class ConfigurationError(ReproError):
    """Raised when configuration values are inconsistent or out of range."""
