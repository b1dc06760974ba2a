"""Wire-record kinds and bookkeeping records of the transaction layer.

A transaction's protocol state rides the shard broadcasts as ``txn-*``
records (see :mod:`repro.txn.participant` for the delivery-side handling);
everything here is the *bookkeeping* side: the record kinds, the
per-transaction descriptor the coordinator and the crash-recovery pass
share, and the payload shapes.

Like the runtime's directory and commit records, descriptors are global
simulator bookkeeping: they model durable coordinator state (a
transaction-manager log) and charge no communication.  All ordering
effects come from the broadcast records themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

#: Same-shard fast path: one ordered record carrying every sub-operation.
KIND_ATOMIC = "txn-atomic"
#: Cross-shard 2PC: one prepare per participant object, sequenced through
#: that object's shard order.
KIND_PREPARE = "txn-prepare"
#: The commit/abort decision, sequenced through the *decision shard* (the
#: shard of the lowest-id broadcast participant).  The first decide record
#: in that order fixes the outcome — which is what arbitrates a recovery
#: abort racing a crashed coordinator's in-flight commit.
KIND_DECIDE = "txn-decide"
#: The fixed outcome carried into every other participant shard.
KIND_OUTCOME = "txn-outcome"

#: Every payload kind the transaction layer routes on delivery.
TXN_KINDS = frozenset({KIND_ATOMIC, KIND_PREPARE, KIND_DECIDE, KIND_OUTCOME})

OUTCOME_COMMIT = "commit"
OUTCOME_ABORT = "abort"

#: Votes a prepare (or atomic) record resolves at its origin member.
VOTE_READY = "ready"
VOTE_RETRY = "retry"


def txn_wid(txn_id: int, index: int, obj_id: int) -> Tuple[str, int]:
    """The stable write id of one primary-managed sub-operation.

    The origin string is unique per (transaction, sub-operation), so the
    primary's newest-only dedup table keeps every sub-operation's entry,
    and a recovery re-apply after a coordinator crash (or a client retry
    across a takeover) is recognised exactly like an ordinary re-issued
    primary write.
    """
    return (f"txn:{txn_id}#{index}", obj_id)


@dataclass
class TxnDescriptor:
    """Durable bookkeeping for one transaction (the coordinator's log).

    The crash-recovery pass reads it to finish or abort a transaction
    whose coordinator node died: ``prepared_shards`` names every shard a
    prepare was broadcast into (whether or not its vote was ever read),
    ``outcome_sent`` which shards already carry the outcome, and
    ``primary_ops`` the seat-managed sub-operations to (re-)apply under
    their stable write ids.
    """

    txn_id: int
    coordinator_node: int
    op_count: int
    #: Participant object ids, ascending — the global acquisition order.
    participants: Tuple[int, ...] = ()
    outcome: Optional[str] = None
    #: Shard whose order arbitrates the decision (None: no broadcast
    #: participants; the descriptor itself is the commit point).
    decision_shard: Optional[int] = None
    #: shard -> broadcast participant obj_ids whose prepare went there.
    prepared_shards: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    outcome_sent: Set[int] = field(default_factory=set)
    #: (index, obj_id, op_name, args, kwargs) per primary-managed sub-op.
    primary_ops: List[Tuple[int, int, str, Tuple[Any, ...], Dict[str, Any]]] = field(
        default_factory=list
    )
    #: Seat locks this transaction still holds (released at completion).
    seats_held: List[int] = field(default_factory=list)
    #: Sub-operation results by original position, filled at apply time.
    results: Dict[int, Any] = field(default_factory=dict)
    #: Node running the recovery pass for this transaction, if any.
    recovery_node: Optional[int] = None
    done: bool = False
