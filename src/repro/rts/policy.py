"""Per-object management policies: the paper's two RTSes as one spectrum.

The broadcast runtime (full replication, writes by ordered broadcast) and the
point-to-point runtime (primary copy, invalidation or two-phase update) are
endpoints of a single object-management spectrum: how many copies exist and
how writes reach them.  This module names the points on that spectrum as
:class:`ManagementPolicy` values that :class:`~repro.rts.hybrid.HybridRts`
applies *per object*:

* :class:`BroadcastReplicated` — a replica on every machine, reads local,
  writes through the totally-ordered broadcast of the object's shard;
* :class:`PrimaryCopyInvalidate` — one primary copy, secondaries discarded
  on write (cheap writes, reads pay an RPC until a copy is re-fetched);
* :class:`PrimaryCopyUpdate` — one primary copy, secondaries refreshed by
  the two-phase update protocol (reads stay local, writes fan out);
* :class:`AdaptivePolicy` — a controller that starts an object on one of the
  fixed points and migrates it at run time when its observed read/write
  ratio (an :class:`~repro.rts.stats.AccessStats` window) says another point
  is cheaper.

Fixed policies are stateless flyweights; :func:`management_policy` coerces
the user-facing spellings (``"broadcast"``, ``"primary-invalidate"``,
``"primary-update"``, ``"adaptive"``, a params mapping, or a ready policy
object) into policy instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..config import params_from
from ..errors import ConfigurationError
from .stats import AccessStats

#: Mechanism labels: which invocation machinery manages an object right now.
MECHANISM_BROADCAST = "broadcast"
MECHANISM_PRIMARY = "primary"

#: How a transaction prepares an object managed under a policy: through an
#: ordered ``txn-prepare`` record in its shard's broadcast order, or by
#: pinning its primary seat (see :mod:`repro.txn`).
PREPARE_ORDER = "order"
PREPARE_SEAT = "seat"


class ManagementPolicy:
    """One point on the object-management spectrum (or a controller on it).

    Fixed policies carry a ``name`` (the user-facing spelling), a
    ``mechanism`` (which runtime machinery serves the object), and — for
    primary-copy policies — the ``protocol`` that propagates writes to
    secondary copies.
    """

    #: User-facing spelling, also used in reports.
    name = "abstract"
    #: ``"broadcast"`` or ``"primary"`` (``None`` for controllers).
    mechanism: Optional[str] = None
    #: Coherence protocol of primary-copy policies (``None`` otherwise).
    protocol: Optional[str] = None
    #: How the transaction layer holds an object under this policy in a
    #: prepared state: :data:`PREPARE_ORDER` (a ``txn-prepare`` record in
    #: the shard order that defers conflicting writes) or
    #: :data:`PREPARE_SEAT` (a lock pinning the primary seat).  ``None``
    #: for controllers — the object's current fixed policy decides.
    prepare_mode: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class BroadcastReplicated(ManagementPolicy):
    """Full replication; writes are operations on the ordered broadcast."""

    name = "broadcast"
    mechanism = MECHANISM_BROADCAST
    prepare_mode = PREPARE_ORDER


class PrimaryCopyInvalidate(ManagementPolicy):
    """Primary copy; writes invalidate (discard) every secondary copy."""

    name = "primary-invalidate"
    mechanism = MECHANISM_PRIMARY
    protocol = "invalidation"
    prepare_mode = PREPARE_SEAT


class PrimaryCopyUpdate(ManagementPolicy):
    """Primary copy; writes refresh secondaries via the two-phase update."""

    name = "primary-update"
    mechanism = MECHANISM_PRIMARY
    protocol = "update"
    prepare_mode = PREPARE_SEAT


#: The fixed policies, as shared flyweights keyed by their spelling.
FIXED_POLICIES = {
    policy.name: policy
    for policy in (BroadcastReplicated(), PrimaryCopyInvalidate(),
                   PrimaryCopyUpdate())
}

#: Runtime-kind spelling -> the default policy that kind configures the
#: unified runtime with.  Shared by every layer that accepts a runtime kind
#: (OrcaProgram's ``rts=``, WorkloadRunner's ``runtime=``) so they cannot
#: drift.  ``"primary"`` resolves to the runtime's configured coherence
#: protocol flavour.
DEFAULT_POLICY_FOR_KIND = {
    "broadcast": "broadcast",
    "p2p": "primary",
    "adaptive": "adaptive",
}


@dataclass(frozen=True)
class AdaptiveParams:
    """Thresholds of the statistics-driven migration controller.

    Attributes
    ----------
    broadcast_ratio:
        Read/write ratio at or above which an object should be broadcast
        replicated (reads dominate: local reads everywhere pay off).
    primary_ratio:
        Ratio at or below which an object should move to a primary copy
        (writes dominate: interrupting every machine per write does not).
    min_accesses:
        Accesses (in the decayed window) an object must accumulate before
        the controller makes any decision.
    check_interval:
        Evaluate the controller every this-many accesses to the object.
    decay:
        Window shrink factor applied after a migration, so the decision that
        triggered it must re-earn itself before the object moves again.
    primary_policy:
        Which primary-copy flavour write-heavy objects migrate to.
    initial:
        The fixed policy an adaptive object starts under.
    """

    broadcast_ratio: float = 3.0
    primary_ratio: float = 1.0
    min_accesses: int = 24
    check_interval: int = 8
    decay: float = 0.25
    primary_policy: str = "primary-invalidate"
    initial: str = "broadcast"

    def __post_init__(self) -> None:
        if self.primary_ratio > self.broadcast_ratio:
            raise ConfigurationError(
                "primary_ratio must not exceed broadcast_ratio "
                f"(got {self.primary_ratio} > {self.broadcast_ratio})")
        if self.min_accesses < 1 or self.check_interval < 1:
            raise ConfigurationError(
                "min_accesses and check_interval must be >= 1")
        if not 0.0 <= self.decay <= 1.0:
            raise ConfigurationError("decay must be in [0, 1]")
        for field_name in ("primary_policy", "initial"):
            value = getattr(self, field_name)
            if value not in FIXED_POLICIES:
                raise ConfigurationError(
                    f"{field_name} must be one of {sorted(FIXED_POLICIES)}, "
                    f"got {value!r}")
        if FIXED_POLICIES[self.primary_policy].mechanism != MECHANISM_PRIMARY:
            raise ConfigurationError(
                f"primary_policy must be a primary-copy policy, "
                f"got {self.primary_policy!r}")


class AdaptivePolicy(ManagementPolicy):
    """Statistics-driven controller migrating an object along the spectrum."""

    name = "adaptive"
    mechanism = None

    def __init__(self, params: Optional[AdaptiveParams] = None) -> None:
        self.params = params or AdaptiveParams()

    @property
    def initial(self) -> str:
        """Name of the fixed policy an object starts under."""
        return self.params.initial

    def due(self, stats: AccessStats) -> bool:
        """Is a controller evaluation due at this access count?"""
        total = stats.total_reads + stats.total_writes
        return total % self.params.check_interval == 0

    def desired(self, stats: AccessStats, current: str) -> Optional[str]:
        """The fixed policy this object should run under, or ``None``.

        ``current`` is the object's present fixed policy; the hysteresis gap
        between the two thresholds keeps objects whose mix sits in between
        wherever they already are.
        """
        params = self.params
        if stats.accesses < params.min_accesses:
            return None
        ratio = stats.ratio
        if ratio >= params.broadcast_ratio and current != "broadcast":
            return "broadcast"
        if (ratio <= params.primary_ratio
                and current != params.primary_policy):
            return params.primary_policy
        return None


PolicyLike = Union[None, str, Mapping, AdaptiveParams, ManagementPolicy]


def management_policy(value: PolicyLike,
                      default: Optional[ManagementPolicy] = None) -> ManagementPolicy:
    """Coerce ``value`` into a :class:`ManagementPolicy`.

    Accepts ``None`` (falls back to ``default``), a policy name, an
    :class:`AdaptiveParams` (or a mapping of its fields), or a ready policy
    instance.
    """
    if value is None:
        if default is None:
            raise ConfigurationError("no management policy given")
        return default
    if isinstance(value, ManagementPolicy):
        return value
    if isinstance(value, AdaptiveParams):
        return AdaptivePolicy(value)
    if isinstance(value, str):
        if value in FIXED_POLICIES:
            return FIXED_POLICIES[value]
        if value == "adaptive":
            return AdaptivePolicy()
        raise ConfigurationError(
            f"unknown management policy {value!r} "
            f"(use one of {sorted(FIXED_POLICIES) + ['adaptive']})")
    if isinstance(value, Mapping):
        return AdaptivePolicy(params_from(AdaptiveParams, value))
    raise ConfigurationError(
        f"cannot interpret {value!r} as a management policy "
        "(use a name, AdaptiveParams, a dict of its fields, or a policy)")
