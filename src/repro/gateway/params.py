"""Gateway tuning knobs; :func:`repro.config.params_from` coerces an argument into them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError


@dataclass(frozen=True)
class GatewayParams:
    """Per-gateway capacity and admission-control configuration.

    Attributes
    ----------
    workers:
        Size of the worker pool actually issuing admitted requests against
        the runtime; this is the gateway's service capacity (sessions are
        state machines, workers are the only simulated processes that
        invoke operations).
    accept_queue:
        Bound on the admitted-but-not-yet-served queue.  A full queue
        rejects the arrival — unless the arriving tenant's priority is
        strictly higher than some queued request's, in which case that
        request is evicted instead.  ``None`` removes the bound (the
        "unshed" baseline overload benchmarks measure against).
    shed_depth:
        Downstream congestion threshold: while the runtime's
        ``downstream_queue_depth()`` is at or above this, only tenants at
        the workload's highest priority level are admitted.  ``None``
        disables overload shedding.
    """

    workers: int = 4
    accept_queue: Optional[int] = 64
    shed_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"gateways need workers >= 1, got {self.workers}")
        if self.accept_queue is not None and self.accept_queue < 1:
            raise ConfigurationError(
                f"accept_queue must be >= 1 (or None for unbounded), got {self.accept_queue}")
        if self.shed_depth is not None and self.shed_depth < 1:
            raise ConfigurationError(
                f"shed_depth must be >= 1 (or None to disable), got {self.shed_depth}")
