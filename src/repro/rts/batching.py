"""Write combining onto a shard's ordered broadcast, with flow control."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Protocol, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..amoeba.broadcast.group import BroadcastGroup
    from ..amoeba.node import Node
    from .base import RtsStats
    from .sharding import BatchingParams, ShardRouter


class BatchingRuntime(Protocol):
    """What a :class:`WriteBatcher` reads of the runtime: the counters a
    flush and a hold bump."""

    stats: "RtsStats"
    router: "ShardRouter"


class WriteBatcher:
    """Per-(node, shard) write combining onto the ordered broadcast.

    Writes enqueue here instead of broadcasting individually.  A batch is
    flushed when it reaches ``max_batch`` operations, when ``flush_delay``
    expires, or — with a zero delay — immediately while no batch is in
    flight.  Only one batch per (node, shard) is outstanding at a time:
    writes arriving while it is on the wire coalesce into the next batch,
    which both preserves per-node FIFO order and yields the group-commit
    effect that amortises the sequencer round trip under contention.

    With ``backpressure_depth`` set, the batcher also implements batch-aware
    flow control: while the shard sequencer's service queue is at least that
    deep, a ready batch is *held* (and keeps coalescing) instead of adding
    to the overload, so the sender backs off before its unanswered sends
    could escalate into retries and a spurious election.  The hold is
    re-evaluated after roughly the time the queue needs to drain back under
    the threshold, and a batch that has grown to ``4 * max_batch`` entries
    flushes unconditionally, bounding the held writes' latency.  (In the
    simulator the sender reads the queue depth directly; a real cluster
    would piggyback it on the sequencer's ordered broadcasts.)
    """

    def __init__(self, rts: BatchingRuntime, node: "Node",
                 group: "BroadcastGroup", shard: int,
                 params: "BatchingParams") -> None:
        self.rts = rts
        self.node = node
        self.group = group
        self.shard = shard
        self.params = params
        self._entries: List[Tuple[Any, ...]] = []
        self._bytes = 0
        self._in_flight = False
        self._timer: Optional[int] = None
        self._backoff_timer: Optional[int] = None
        self.holds = 0

    def enqueue(self, entry: Tuple[Any, ...], size: int) -> None:
        self._entries.append(entry)
        self._bytes += size
        self._maybe_flush()

    def on_batch_delivered(self) -> None:
        self._in_flight = False
        self._maybe_flush()

    def cancel(self) -> None:
        """Disarm both timers (the machine's batches died with it)."""
        for timer in (self._timer, self._backoff_timer):
            if timer is not None:
                self.node.kernel.cancel_timer(timer)

    def _maybe_flush(self) -> None:
        if self._in_flight or not self._entries:
            return
        if (len(self._entries) >= self.params.max_batch
                or self.params.flush_delay <= 0.0):
            self._flush_or_hold()
        elif self._timer is None:
            self._timer = self.node.kernel.set_timer(
                self.params.flush_delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if not self._in_flight and self._entries:
            self._flush_or_hold()

    def _on_backoff(self) -> None:
        self._backoff_timer = None
        self._maybe_flush()

    def _flush_or_hold(self) -> None:
        """A batch is due: flush it, unless the loaded sequencer says hold
        (then re-check once it had time to work its queue down)."""
        depth = self.params.backpressure_depth
        if (depth is None or len(self._entries) >= 4 * self.params.max_batch
                or self.group.sequencer.queue_depth < depth):
            self._flush()
        elif self._backoff_timer is None:
            self.holds += 1
            self.rts.stats.flow_control_holds += 1
            service = self.node.cost_model.cpu.sequencing_cost
            delay = max(self.params.flush_delay, service * depth)
            self._backoff_timer = self.node.kernel.set_timer(
                delay, self._on_backoff)

    def _flush(self) -> None:
        if self._timer is not None:
            self.node.kernel.cancel_timer(self._timer)
            self._timer = None
        entries, self._entries = self._entries, []
        size, self._bytes = self._bytes, 0
        self._in_flight = True
        self.rts.stats.batches_sent += 1
        self.rts.router.shard_stats[self.shard].note_batch(len(entries))
        self.group.member(self.node.node_id).broadcast(
            ("batch", entries), size=max(16, size) + 8)
