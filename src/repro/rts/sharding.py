"""Sharding the shared-object space over multiple broadcast groups.

The classic broadcast RTS funnels every write through one sequencer, which
makes that machine the system-wide throughput ceiling.  Total order, however,
is only needed *per object* (per shard), not per cluster: this module splits
the object space into N shards, each backed by its own
:class:`~repro.amoeba.broadcast.group.BroadcastGroup` with its own sequencer,
placed round-robin over the machines so the sequencing load spreads.

Placement policies decide which shard an object lives on:

* :class:`HashPlacement` — deterministic hash of the object id (uniform for
  the sequentially assigned ids) or of the object name;
* :class:`ExplicitPlacement` — a name -> shard map with hash placement for
  every other object, for pinning known-hot objects onto dedicated shards.

:class:`ShardRouter` owns the groups and per-shard counters;
:class:`BatchingParams` configures the per-node write batching that rides on
top (see :mod:`repro.rts.hybrid`), flushing a shard's queued writes
into one ordered broadcast on a size or time threshold.

Placement is **epoch-versioned**: the router records every object's current
shard in an assignment table seeded from the placement policy, and an
explicit override table tracks objects that were *moved* after creation (the
drain-and-switch rebalancing of :class:`~repro.rts.hybrid.HybridRts`).  Every
move — and every live :meth:`ShardRouter.add_shard` — bumps the router's
``placement_epoch``, so reports and tests can pin down exactly which routing
generation a run ended on.  Per-shard *window* counters (writes since the
last :meth:`ShardRouter.reset_window`) are the load signal
:class:`RebalancePlanner` turns into concrete object -> group moves off the
hottest shard; the sequencers' queue depths are exported alongside
(:meth:`ShardRouter.queue_depths` and the per-shard summaries) for
operators, reports, and the batching layer's flow control.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Set

from ..errors import ConfigurationError
from .stats import ShardStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.cluster import Cluster


@dataclass(frozen=True)
class BatchingParams:
    """Knobs of the per-node, per-shard write batching.

    Attributes
    ----------
    max_batch:
        Size threshold: a batch is flushed as soon as it holds this many
        operations.
    flush_delay:
        Time threshold, in seconds of virtual time.  Zero means "flush
        immediately when no batch is in flight"; writes arriving while a
        batch is on the wire still coalesce into the next one (group-commit
        style), which is what amortises the sequencer round trip under
        contention without adding latency when the node is idle.
    backpressure_depth:
        Flow-control coupling to the sequencer's service queue.  When set, a
        batch is *held back* (kept coalescing) while the shard sequencer's
        queue is at least this deep, so senders back off before the
        send-retry/election path would fire under overload.  The batch still
        flushes unconditionally once it has grown to ``4 * max_batch``
        operations, bounding both memory and the latency of the held writes.
        ``None`` (the default) disables flow control; it is also inert when
        the sequencer is not modelled as a queueing server
        (``cpu.sequencing_cost == 0``), since the queue then never forms.
    """

    max_batch: int = 8
    flush_delay: float = 0.0
    backpressure_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.flush_delay < 0:
            raise ConfigurationError("flush_delay must be non-negative")
        if self.backpressure_depth is not None and self.backpressure_depth < 1:
            raise ConfigurationError(
                "backpressure_depth must be >= 1 (or None to disable)")


@dataclass(frozen=True)
class RebalanceParams:
    """Knobs of the runtime's background shard-rebalancing controller.

    Attributes
    ----------
    interval:
        Virtual seconds between controller rounds.  Each round samples the
        router's load window, plans moves, executes them, and resets the
        window, so the window length *is* the interval.
    imbalance:
        Hot/cool load-score ratio below which the placement counts as
        balanced and the planner proposes no moves.
    min_writes:
        Minimum writes in the window before any decision is made (avoids
        reacting to startup noise).
    max_moves:
        Cap on moves per round; rebalancing is cheap but not free (each move
        costs one switch broadcast in two groups).
    grow_to:
        When set, the controller adds one broadcast group per active round
        (via the runtime's ``add_shard``) until the cluster runs this many,
        scaling the group set out *live* before spreading objects onto it.
        Growth is additionally capped at the number of live nodes: a shard
        beyond that has no machine left to give its sequencer seat a core of
        its own, so adding it cannot spread the ordering load further.
    """

    interval: float = 0.005
    imbalance: float = 1.5
    min_writes: int = 32
    max_moves: int = 3
    grow_to: Optional[int] = None

    def __post_init__(self) -> None:
        if self.interval <= 0.0:
            raise ConfigurationError("rebalance interval must be positive")
        if self.imbalance <= 1.0:
            raise ConfigurationError("imbalance threshold must exceed 1.0")
        if self.min_writes < 1 or self.max_moves < 1:
            raise ConfigurationError("min_writes and max_moves must be >= 1")
        if self.grow_to is not None and self.grow_to < 1:
            raise ConfigurationError("grow_to must be >= 1 shard")


class ShardingPolicy(ABC):
    """Maps objects to shard indices in ``[0, num_shards)``."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        self.num_shards = num_shards

    @abstractmethod
    def shard_of(self, obj_id: int, name: str) -> int:
        """The shard holding object ``obj_id`` (named ``name``)."""


class HashPlacement(ShardingPolicy):
    """Deterministic hash placement.

    ``by="id"`` (the default) spreads the sequentially assigned object ids
    uniformly over the shards; ``by="name"`` hashes the stable object name
    with CRC-32, so placement survives id renumbering between runs.
    """

    def __init__(self, num_shards: int, by: str = "id") -> None:
        super().__init__(num_shards)
        if by not in ("id", "name"):
            raise ConfigurationError("HashPlacement by must be 'id' or 'name'")
        self.by = by

    def shard_of(self, obj_id: int, name: str) -> int:
        if self.by == "id":
            return (obj_id - 1) % self.num_shards
        return zlib.crc32(name.encode("utf-8")) % self.num_shards


class ExplicitPlacement(ShardingPolicy):
    """Pin named objects to chosen shards; everything else is id-hashed."""

    def __init__(self, num_shards: int, assignments: Mapping[str, int]) -> None:
        super().__init__(num_shards)
        for name, shard in assignments.items():
            if not 0 <= shard < num_shards:
                raise ConfigurationError(
                    f"object {name!r} pinned to shard {shard}, but only "
                    f"{num_shards} shards exist")
        self.assignments = dict(assignments)
        self.fallback = HashPlacement(num_shards)

    def shard_of(self, obj_id: int, name: str) -> int:
        shard = self.assignments.get(name)
        if shard is not None:
            return shard
        return self.fallback.shard_of(obj_id, name)


def make_policy(num_shards: int, placement: Any) -> ShardingPolicy:
    """Coerce ``placement`` into a policy for ``num_shards`` shards.

    Accepts a ready policy, the string ``"hash"``, or a name -> shard dict
    (explicit placement with hash fallback).
    """
    if isinstance(placement, ShardingPolicy):
        if placement.num_shards != num_shards:
            raise ConfigurationError(
                f"placement policy is for {placement.num_shards} shards, "
                f"but {num_shards} were requested")
        return placement
    if placement in (None, "hash"):
        return HashPlacement(num_shards)
    if isinstance(placement, Mapping):
        return ExplicitPlacement(num_shards, placement)
    raise ConfigurationError(
        f"cannot interpret {placement!r} as a sharding policy "
        "(use 'hash', a name->shard dict, or a ShardingPolicy)")


class ShardRouter:
    """Owns one broadcast group per shard and routes objects onto them.

    Shard 0 reuses the cluster's classic group (so a one-shard router is
    wire-identical to the unsharded runtime); further shards get fresh
    groups whose initial sequencer seats rotate round-robin over the
    machines, which is what actually spreads the sequencing load.

    The object -> shard mapping is epoch-versioned: initial placement comes
    from the policy and is recorded per object; :meth:`move` rewrites one
    object's route (recording it in the override table) and :meth:`add_shard`
    grows the group set on the live cluster.  Both bump ``placement_epoch``.
    Every write is also counted into a *window* (per shard and per object)
    that :class:`RebalancePlanner` reads and :meth:`reset_window` clears, so
    load decisions see recent traffic, not the whole run — and the counters
    follow the object when it moves.
    """

    def __init__(self, cluster: "Cluster", num_shards: int = 1,
                 placement: Any = None) -> None:
        self.cluster = cluster
        self.policy = make_policy(num_shards, placement)
        self.num_shards = num_shards
        self.groups: List["BroadcastGroup"] = [cluster.broadcast_group]
        for shard in range(1, num_shards):
            self.groups.append(cluster.new_broadcast_group(
                sequencer_node_id=cluster.nodes[shard % cluster.num_nodes].node_id))
        self.shard_stats: Dict[int, ShardStats] = {
            shard: ShardStats() for shard in range(num_shards)
        }
        #: Routing generation: bumped by every move and every added shard.
        self.placement_epoch = 0
        #: Shards whose total order was merged away (``remove_shard``).
        #: Groups are positional in ``self.groups`` and their wire-kind
        #: namespaces stay registered on every node, so a retired shard is
        #: marked, never deleted — its id must not be reused.
        self.retired: Set[int] = set()
        #: obj_id -> current shard (seeded from the policy on first use).
        self._assigned: Dict[int, int] = {}
        #: obj_id -> shard, for objects moved off their creation placement.
        self.overrides: Dict[int, int] = {}
        #: Load window (since the last reset): writes per shard / per object.
        self._window_shard_writes: Dict[int, int] = {
            shard: 0 for shard in range(num_shards)
        }
        self._window_obj_writes: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def shard_of(self, obj_id: int, name: str) -> int:
        """The policy's placement for the object (ignores overrides)."""
        return self.policy.shard_of(obj_id, name)

    def assign(self, obj_id: int, name: str) -> int:
        """The object's current shard, seeding the assignment on first use.

        A policy placement that lands on a retired shard is deterministically
        remapped onto the active shard list (the policies are static hash
        functions and know nothing about retirement).
        """
        shard = self._assigned.get(obj_id)
        if shard is None:
            shard = self.policy.shard_of(obj_id, name)
            if shard in self.retired:
                active = self.active_shards()
                shard = active[shard % len(active)]
            self._assigned[obj_id] = shard
        return shard

    def assigned_shard(self, obj_id: int) -> Optional[int]:
        """The object's current shard, or ``None`` if it was never placed."""
        return self._assigned.get(obj_id)

    def move(self, obj_id: int, new_shard: int) -> int:
        """Re-route ``obj_id`` onto ``new_shard``; returns the old shard.

        Pure routing-table surgery: the cross-group drain-and-switch that
        makes a move *safe* for an object with ordered writes in flight is
        the runtime's job (:meth:`repro.rts.hybrid.HybridRts.move_shard`).
        The object's window counters follow it, so load measurements stay
        attributed to where the traffic now lands.
        """
        if not 0 <= new_shard < self.num_shards:
            raise ConfigurationError(
                f"cannot move object {obj_id} to shard {new_shard}: only "
                f"{self.num_shards} shards exist")
        if new_shard in self.retired:
            raise ConfigurationError(
                f"cannot move object {obj_id} to shard {new_shard}: the "
                "shard is retired")
        old = self._assigned.get(obj_id)
        if old is None:
            raise ConfigurationError(
                f"object {obj_id} has no recorded placement to move from")
        if old == new_shard:
            return old
        self._assigned[obj_id] = new_shard
        self.overrides[obj_id] = new_shard
        window = self._window_obj_writes.get(obj_id, 0)
        if window:
            self._window_shard_writes[old] -= window
            self._window_shard_writes[new_shard] += window
        self.placement_epoch += 1
        return old

    def add_shard(self, sequencer_node_id: Optional[int] = None) -> int:
        """Add one broadcast group to the live cluster; returns its shard id.

        The new group's members join immediately (its wire-kind namespace is
        registered at construction) and the initial sequencer seat goes to
        the live machine currently hosting the fewest seats, so scale-out
        keeps spreading the ordering work.  Hash placement policies, and the
        hash fallback of an explicit one, grow to include the new shard for
        objects created *afterwards*; existing objects keep their recorded
        assignment until explicitly moved.
        """
        shard = self.num_shards
        if sequencer_node_id is None:
            seats: Dict[int, int] = {}
            for existing, group in enumerate(self.groups):
                if existing in self.retired:
                    continue  # a retired sequencer seat carries no load
                seats[group.sequencer_node_id] = seats.get(
                    group.sequencer_node_id, 0) + 1
            live = [node.node_id for node in self.cluster.nodes if node.alive]
            if not live:
                raise ConfigurationError("no live node can host the new seat")
            sequencer_node_id = min(
                live, key=lambda nid: (seats.get(nid, 0), nid))
        self.groups.append(self.cluster.new_broadcast_group(
            sequencer_node_id=sequencer_node_id))
        self.num_shards += 1
        self.shard_stats[shard] = ShardStats()
        self._window_shard_writes[shard] = 0
        if isinstance(self.policy, HashPlacement):
            self.policy = HashPlacement(self.num_shards, by=self.policy.by)
        elif isinstance(self.policy, ExplicitPlacement):
            self.policy = ExplicitPlacement(self.num_shards, self.policy.assignments)
        self.placement_epoch += 1
        return shard

    def retire_shard(self, shard: int) -> None:
        """Mark ``shard`` retired: no placement, moves, or planning reach it.

        Routing-table surgery only, like :meth:`move` — evacuating the
        objects still assigned to the shard and draining/retiring its
        sequencer is the runtime's job
        (:meth:`repro.rts.hybrid.HybridRts.remove_shard`).  The group object
        itself stays in place (its id is positional and its wire-kind
        namespace is registered on every node), it just stops being a
        routing destination.
        """
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(
                f"cannot retire shard {shard}: only {self.num_shards} "
                "shards exist")
        if shard in self.retired:
            raise ConfigurationError(f"shard {shard} is already retired")
        if self.num_active_shards <= 1:
            raise ConfigurationError(
                "cannot retire the last active shard")
        self.retired.add(shard)
        self.placement_epoch += 1

    def active_shards(self) -> List[int]:
        """Shard ids still accepting placement, in ascending order."""
        return [shard for shard in range(self.num_shards)
                if shard not in self.retired]

    @property
    def num_active_shards(self) -> int:
        return self.num_shards - len(self.retired)

    # ------------------------------------------------------------------ #
    # Load accounting
    # ------------------------------------------------------------------ #

    def note_create(self, obj_id: int, name: str) -> int:
        shard = self.assign(obj_id, name)
        self.shard_stats[shard].note_create()
        return shard

    def note_write(self, obj_id: int, name: str) -> int:
        """Count one write invocation against the object's *current* shard."""
        shard = self.assign(obj_id, name)
        self.shard_stats[shard].note_write()
        self._window_shard_writes[shard] += 1
        self._window_obj_writes[obj_id] = (
            self._window_obj_writes.get(obj_id, 0) + 1)
        return shard

    def window_loads(self) -> Dict[int, int]:
        """Writes per shard since the last window reset."""
        return dict(self._window_shard_writes)

    def window_object_writes(self, shard: Optional[int] = None) -> Dict[int, int]:
        """Writes per object since the last reset (optionally one shard's)."""
        if shard is None:
            return dict(self._window_obj_writes)
        return {obj_id: writes
                for obj_id, writes in self._window_obj_writes.items()
                if self._assigned.get(obj_id) == shard}

    def reset_window(self) -> None:
        """Start a fresh load window (after a plan round or a move)."""
        for shard in self._window_shard_writes:
            self._window_shard_writes[shard] = 0
        self._window_obj_writes.clear()

    # ------------------------------------------------------------------ #
    # Lookup / reporting
    # ------------------------------------------------------------------ #

    def group_for(self, shard: int) -> "BroadcastGroup":
        return self.groups[shard]

    def sequencer_nodes(self) -> List[int]:
        """Current sequencer seat of every shard (for tests and reports)."""
        return [group.sequencer_node_id for group in self.groups]

    def queue_depths(self) -> Dict[int, int]:
        """Current service-queue depth of every shard's sequencer."""
        return {shard: group.sequencer.queue_depth
                for shard, group in enumerate(self.groups)}

    def summary(self) -> Dict[str, Any]:
        """Compact per-shard digest for benchmark reports."""
        per_shard: Dict[int, Dict[str, Any]] = {}
        for shard, stats in sorted(self.shard_stats.items()):
            digest = stats.summary()
            digest["max_queue_depth"] = self.groups[shard].sequencer.max_queue_depth
            per_shard[shard] = digest
        summary = {
            "num_shards": self.num_shards,
            "sequencer_nodes": self.sequencer_nodes(),
            "placement_epoch": self.placement_epoch,
            "per_shard": per_shard,
        }
        if self.overrides:
            summary["overrides"] = dict(sorted(self.overrides.items()))
        if self.retired:
            summary["retired_shards"] = sorted(self.retired)
            summary["num_active_shards"] = self.num_active_shards
        return summary


@dataclass(frozen=True)
class RebalanceMove:
    """One proposed object relocation between broadcast groups."""

    obj_id: int
    src: int
    dst: int


#: Weight of one queued sequencer message in the planner's per-shard load
#: score, against 1 per window write (see :class:`RebalancePlanner`).
QUEUE_WEIGHT = 1.0


class RebalancePlanner:
    """Turns the router's load window into object -> group moves.

    The planner is stateless: all measurements live in the router's window
    counters, which the caller resets once it has acted on a plan.  One
    planning round moves traffic from the single hottest shard to the single
    coolest; repeated rounds converge on a balanced placement even when one
    object dominates (the monolith moves whole, in its own round, whenever
    doing so shrinks the hottest bin).

    Each shard's load score is its window writes plus :data:`QUEUE_WEIGHT`
    times its sequencer's *current* service-queue depth: a backlogged
    sequencer is hotter than its arrival count alone suggests (every queued
    message is service time not yet paid), so the planner drains the shard
    that is actually melting, not just the one that received the most
    writes.  ``params`` supplies the ``imbalance``, ``min_writes`` and
    ``max_moves`` thresholds (see :class:`RebalanceParams`); ``exclude`` is
    an optional ``obj_id -> bool`` predicate whose hits are skipped (the
    runtime's controller passes its per-object move cooldown to damp churn).
    """

    def __init__(self, router: ShardRouter, params: RebalanceParams,
                 exclude: Optional[Callable[[int], bool]] = None) -> None:
        self.router = router
        self.params = params
        self.exclude = exclude

    def plan(self) -> List[RebalanceMove]:
        """Moves off the hottest shard that shrink the hot/cool gap.

        Candidates are taken hottest-object-first; an object is skipped when
        moving it would overshoot the balance point (its window writes
        exceed what is left of the hot-cool deficit after earlier moves),
        or when the ``exclude`` predicate (the controller's move cooldown)
        rules it out.
        """
        router = self.router
        loads = {shard: load for shard, load in router.window_loads().items()
                 if shard not in router.retired}
        if len(loads) < 2 or sum(loads.values()) < self.params.min_writes:
            return []
        depths = router.queue_depths()
        scores = {shard: load + QUEUE_WEIGHT * depths.get(shard, 0)
                  for shard, load in loads.items()}
        hot = max(scores, key=lambda shard: (scores[shard], -shard))
        cool = min(scores, key=lambda shard: (scores[shard], shard))
        if scores[hot] < self.params.imbalance * max(1.0, scores[cool]):
            return []
        deficit = scores[hot] - scores[cool]
        candidates = sorted(router.window_object_writes(shard=hot).items(),
                            key=lambda item: (-item[1], item[0]))
        moves: List[RebalanceMove] = []
        moved = 0
        for obj_id, writes in candidates:
            if len(moves) >= self.params.max_moves or writes <= 0:
                break
            if self.exclude is not None and self.exclude(obj_id):
                continue
            if writes >= deficit - 2 * moved:
                continue  # would make the destination the new hot spot
            moves.append(RebalanceMove(obj_id=obj_id, src=hot, dst=cool))
            moved += writes
        return moves
