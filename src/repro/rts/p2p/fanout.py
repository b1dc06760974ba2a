"""Acknowledgement bookkeeping of a primary's coherence fan-outs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...sim.process import SimProcess


@dataclass
class _Transaction:
    """Fan-out bookkeeping: one primary write waiting for acknowledgements."""

    remaining: int
    #: Nodes still owing an acknowledgement; a node crash releases its debt
    #: (a dead machine will never answer, and its copy is gone with it).
    destinations: Set[int]
    proc: Optional["SimProcess"] = None

    def release(self, node: int) -> None:
        """``node`` acknowledged, or died owing the acknowledgement."""
        if self.destinations:
            # An ack only counts while its sender still owes one: a node
            # that crashed with its ack in flight already had its debt
            # released by the crash listener, and double-counting it would
            # complete the fan-out before the live secondaries applied.
            if node not in self.destinations:
                return
            self.destinations.discard(node)
        self.remaining -= 1
        if self.remaining <= 0 and self.proc is not None:
            self.proc.wake()


class FanOuts:
    """Every fan-out of one runtime still collecting acknowledgements."""

    def __init__(self) -> None:
        self._txn_ids = itertools.count(1)
        self._transactions: Dict[int, _Transaction] = {}

    def new_transaction(self, expected_acks: int,
                        destinations: Optional[List[int]] = None) -> int:
        txn_id = next(self._txn_ids)
        self._transactions[txn_id] = _Transaction(
            remaining=expected_acks,
            destinations=set(destinations or ()))
        return txn_id

    def await_acks(self, proc: "SimProcess", txn_id: int) -> None:
        txn = self._transactions[txn_id]
        if txn.remaining > 0:
            txn.proc = proc
            proc.suspend()
        del self._transactions[txn_id]

    def on_ack(self, nid: int, payload: Dict[str, Any]) -> None:
        txn = self._transactions.get(payload["txn_id"])
        if txn is not None:
            txn.release(payload.get("node"))

    def node_crashed(self, crashed: int) -> None:
        """Release every acknowledgement the dead machine will never send,
        so primaries mid-fan-out complete on the survivors, and forget the
        fan-outs its own primaries were collecting."""
        for txn_id, txn in list(self._transactions.items()):
            if txn.proc is not None and txn.proc.node.node_id == crashed:
                del self._transactions[txn_id]
            elif crashed in txn.destinations:
                txn.release(crashed)
