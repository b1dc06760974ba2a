"""The primary-copy core: exactly-once write ids, ack debts and seat switches.

The simulated :class:`~repro.rts.primary.PrimaryCopy` and the real-socket
:class:`~repro.net.runtime.RealRuntime` both run through it; they suspend,
send and re-send, this module only decides.  The simulator's switch engine
(:mod:`repro.rts.switch`) and the real takeover share its
:class:`SwitchRecord` and epoch rule.  No I/O, no clock: it imports the
standard library only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

#: origin -> (seq, result) of the newest write a FIFO client got applied to
#: one copy: one entry per client however long the run.
AppliedTable = Dict[Any, Tuple[int, Any]]

#: ``drain``: the switch point in the order the object's writes rode so far (a
#: shard move adds ``arrive``: its destination order carries the object).
LEG_DRAIN, LEG_ARRIVE = "drain", "arrive"

#: Verdicts of :func:`place_epoch`.
STALE, CURRENT, FUTURE = -1, 0, 1


class SwitchRecord(NamedTuple):
    """What every member learns, at one position of the object's order."""

    obj_id: int
    epoch: int
    #: Policy managing the object, and its primary seat (-1: none), from here on.
    policy: str
    primary: int
    #: ``(state, version, applied-write table)`` to install, or ``None`` when
    #: the replicas are already identical and simply stay.
    snapshot: Optional[Tuple[Any, int, Dict]] = None
    #: The members that install the snapshot (``None``: all of them).
    scope: Optional[Tuple[int, ...]] = None
    leg: str = LEG_DRAIN


def place_epoch(epoch: int, delivered: int) -> int:
    """An ``epoch``-stamped record at a member that delivered switches up to
    ``delivered``: ``STALE`` (a later switch superseded it), ``CURRENT`` or
    ``FUTURE`` (a switch to install, or a write that outran its switch)."""
    return (epoch > delivered) - (epoch < delivered)


def lookup_applied(table: AppliedTable, wid) -> Tuple[bool, Any]:
    """Is write ``wid`` = (origin, seq) a duplicate here, and with what result?

    The origin's newest ``seq`` is a re-issue: its recorded result.  A smaller
    one is a stale duplicate whose writer already has its answer (a FIFO
    client moves on only then): not applied either, and its result is moot.
    """
    entry = table.get(wid[0]) if wid is not None else None
    if entry is None or entry[0] < wid[1]:
        return False, None
    return True, (entry[1] if entry[0] == wid[1] else None)


def record_applied(table: AppliedTable, wid, result) -> None:
    """Note that this copy applied ``wid`` with ``result``.  The caller
    records only a write that took effect, never a guard retry."""
    if wid is not None:
        table[wid[0]] = (wid[1], result)


@dataclass
class _Transaction:
    """Fan-out bookkeeping: one primary write waiting for acknowledgements."""

    remaining: int
    #: Nodes still owing an acknowledgement; a node crash releases its debt
    #: (a dead machine will never answer, and its copy is gone with it).
    destinations: Set[int]
    #: The primary's node and what wakes its writer, once it waits.
    owner: Optional[int] = None
    wake: Optional[Callable[[], None]] = None


class FanOuts:
    """Every fan-out of one runtime still collecting acknowledgements."""

    def __init__(self) -> None:
        self._txn_ids = itertools.count(1)
        self._transactions: Dict[int, _Transaction] = {}

    def __len__(self) -> int:
        return len(self._transactions)

    def new_transaction(self, expected_acks: int,
                        destinations: Optional[List[int]] = None) -> int:
        txn_id = next(self._txn_ids)
        self._transactions[txn_id] = _Transaction(
            remaining=expected_acks,
            destinations=set(destinations or ()))
        return txn_id

    def wait(self, txn_id: int, owner: int, wake: Callable[[], None]) -> bool:
        """Arm ``wake`` for the fan-out's completion; False if it is complete."""
        txn = self._transactions[txn_id]
        if txn.remaining <= 0:
            return False
        txn.owner, txn.wake = owner, wake
        return True

    def owing(self, txn_id: int) -> Set[int]:
        """The nodes whose acknowledgement the fan-out still waits for."""
        return set(self._transactions[txn_id].destinations)

    def forget(self, txn_id: int) -> None:
        """The writer is done with the fan-out (complete or abandoned)."""
        self._transactions.pop(txn_id, None)

    def release(self, txn_id: int, node: Optional[int]) -> None:
        """``node`` acknowledged fan-out ``txn_id``, or died owing the ack."""
        txn = self._transactions.get(txn_id)
        if txn is None:
            return
        if txn.destinations:
            # An ack only counts while its sender still owes one: a node
            # that crashed with its ack in flight already had its debt
            # released by the crash listener, and double-counting it would
            # complete the fan-out before the live secondaries applied.
            if node not in txn.destinations:
                return
            txn.destinations.discard(node)
        txn.remaining -= 1
        if txn.remaining <= 0 and txn.wake is not None:
            txn.wake()

    def on_ack(self, nid: int, payload: Dict[str, Any]) -> None:
        self.release(payload["txn_id"], payload.get("node"))

    def node_crashed(self, crashed: int) -> None:
        """Release every acknowledgement the dead machine will never send,
        so primaries mid-fan-out complete on the survivors, and forget the
        fan-outs its own primaries were collecting (never waking them)."""
        for txn_id, txn in list(self._transactions.items()):
            if txn.owner == crashed:
                del self._transactions[txn_id]
            elif crashed in txn.destinations:
                self.release(txn_id, crashed)
