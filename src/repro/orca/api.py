"""Object proxies: the syntax through which Orca processes touch shared objects.

A :class:`BoundObject` wraps an :class:`~repro.rts.base.ObjectHandle` and the
runtime system managing it.  Attribute access returns a callable per declared
operation, so application code simply writes ``bound.enqueue(job)`` or
``value = bound.read()`` — the proxy figures out which simulated process is
invoking (the one currently holding control) and routes the call through the
runtime system, which makes it a local read, a broadcast write, or an RPC as
appropriate.  This is what the paper calls location transparency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict

from ..errors import OrcaError, UnknownOperationError
from ..rts.base import ObjectHandle, RuntimeSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.process import SimProcess


class BoundObject:
    """A location-transparent reference to a shared object, usable from any process."""

    __slots__ = ("_rts", "_handle", "_op_cache")

    def __init__(self, rts: RuntimeSystem, handle: ObjectHandle) -> None:
        self._rts = rts
        self._handle = handle
        self._op_cache: Dict[str, Callable[..., Any]] = {}

    # -- introspection ----------------------------------------------------- #

    @property
    def handle(self) -> ObjectHandle:
        """The underlying runtime handle."""
        return self._handle

    @property
    def name(self) -> str:
        """The object's name (for reports and debugging)."""
        return self._handle.name

    @property
    def policy(self) -> str:
        """Name of the management policy currently governing this object."""
        return self._rts.policy_of(self._handle)

    def migrate(self, policy: Any) -> bool:
        """Move this object under another management policy at run time.

        Only meaningful on the unified runtime; returns ``True`` when a
        migration was performed (see
        :meth:`repro.rts.hybrid.HybridRts.migrate`).
        """
        migrate = getattr(self._rts, "migrate", None)
        if migrate is None:
            raise OrcaError(
                f"runtime {self._rts.name!r} does not support policy migration")
        return migrate(self._current_process(), self._handle, policy)

    def operations(self):
        """Names of the operations this object supports."""
        return sorted(self._handle.spec_class.operations())

    # -- invocation --------------------------------------------------------- #

    def _current_process(self) -> "SimProcess":
        proc = self._rts.sim.current_process
        if proc is None:
            raise OrcaError(
                f"operation on shared object {self.name!r} invoked outside any "
                "Orca process (operations must run inside the simulation)"
            )
        return proc

    def invoke(self, op_name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke an operation by name (the explicit form of attribute access)."""
        proc = self._current_process()
        return self._rts.invoke(proc, self._handle, op_name, args, kwargs)

    def __getattr__(self, op_name: str) -> Callable[..., Any]:
        if op_name.startswith("_"):
            raise AttributeError(op_name)
        cached = self._op_cache.get(op_name)
        if cached is not None:
            return cached
        if op_name not in self._handle.spec_class.operations():
            raise UnknownOperationError(
                f"object {self.name!r} of type {self._handle.spec_class.__name__!r} "
                f"has no operation {op_name!r}"
            )

        def call(*args: Any, **kwargs: Any) -> Any:
            proc = self._current_process()
            return self._rts.invoke(proc, self._handle, op_name, args, kwargs)

        call.__name__ = op_name
        self._op_cache[op_name] = call
        return call

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BoundObject {self.name!r} via {self._rts.name}>"
