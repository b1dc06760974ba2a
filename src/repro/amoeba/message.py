"""Messages exchanged over the simulated network.

A :class:`Message` is a logical unit (an RPC request, a broadcast data
message, a protocol acknowledgement).  The network layer fragments messages
larger than one packet and reassembles them at the receiving NIC, exactly so
that the PB/BB protocol choice ("one packet or less" versus "more than one
packet") can be made the way the paper describes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_msg_counter = itertools.count(1)

#: Broadcast destination marker.
BROADCAST = None


#: Keys-portion sizes for dict payloads keyed by their tuple of (all-``str``)
#: keys: protocol payloads reuse a handful of header shapes with interned key
#: strings, so the keys' contribution is computed once per shape.  Restricted
#: to exact-``str`` keys because only their size is a pure function of
#: equality (an object with a custom ``__eq__``/``marshal_size`` is not).
_DICT_SHAPE_SIZES: Dict[tuple, int] = {}
_DICT_SHAPE_CACHE_LIMIT = 4096


def estimate_size(value: Any) -> int:
    """Estimate the marshalled size, in bytes, of a Python value.

    The simulation does not serialise payloads for real; instead it charges
    network time according to this estimate.  The rules are deliberately
    simple and deterministic:

    * ``None``/booleans: 1 byte; integers and floats: 8 bytes;
    * strings and byte strings: their length;
    * lists, tuples, sets: 8 bytes of framing plus the sum of their elements;
    * dicts: 8 bytes of framing plus keys and values;
    * objects exposing ``marshal_size()``: whatever that reports;
    * anything else: 64 bytes (a conservative default for small records).

    The scalar cases are answered with exact-type checks (``bool`` first:
    it is an ``int`` subclass); everything else goes through an iterative
    walk, so arbitrarily deep payloads cannot hit the recursion limit.
    """
    if value is None or value is True or value is False:
        return 1
    t = type(value)
    if t is int or t is float:
        return 8
    if t is str or t is bytes:
        length = len(value)
        return length if length > 0 else 1
    return _estimate_structured(value)


def _estimate_structured(value: Any) -> int:
    """The non-scalar (or subclassed-scalar) cases of :func:`estimate_size`.

    An explicit stack replaces recursion.  Element order never matters —
    integer addition commutes — so set/dict iteration order is irrelevant.
    """
    total = 0
    stack = [value]
    pop = stack.pop
    while stack:
        v = pop()
        if v is None or isinstance(v, bool):
            total += 1
        elif isinstance(v, (int, float)):
            total += 8
        elif isinstance(v, (str, bytes, bytearray)):
            total += max(1, len(v))
        elif isinstance(v, (list, tuple, set, frozenset)):
            total += 8
            stack.extend(v)
        elif isinstance(v, dict):
            total += 8
            if v:
                keys = tuple(v)
                if all(type(k) is str for k in keys):
                    keys_size = _DICT_SHAPE_SIZES.get(keys)
                    if keys_size is None:
                        keys_size = sum(max(1, len(k)) for k in keys)
                        if len(_DICT_SHAPE_SIZES) < _DICT_SHAPE_CACHE_LIMIT:
                            _DICT_SHAPE_SIZES[keys] = keys_size
                    total += keys_size
                else:
                    stack.extend(keys)
                stack.extend(v.values())
        else:
            marshal_size = getattr(v, "marshal_size", None)
            if callable(marshal_size):
                total += int(marshal_size())
            else:
                total += 64
    return total


@dataclass
class Message:
    """A logical message travelling between nodes.

    Attributes
    ----------
    src:
        Sending node id.
    dst:
        Destination node id, or ``None`` for a hardware broadcast.
    kind:
        Port / message-type string used for dispatch at the receiver.
    payload:
        Arbitrary Python payload (never copied; the simulation relies on
        senders not mutating payloads after sending).
    size:
        Payload size in bytes used for network cost accounting.  If zero, it
        is estimated from the payload at construction time.
    headers:
        Optional protocol metadata (sequence numbers, message ids, ...).
    """

    src: int
    dst: Optional[int]
    kind: str
    payload: Any = None
    size: int = 0
    headers: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_msg_counter))

    def __post_init__(self) -> None:
        if self.size <= 0:
            self.size = max(1, estimate_size(self.payload))

    @property
    def is_broadcast(self) -> bool:
        return self.dst is BROADCAST

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dst = "ALL" if self.is_broadcast else self.dst
        return f"<Message #{self.msg_id} {self.kind} {self.src}->{dst} {self.size}B>"


def make_message(
    node: Any, dst: Optional[int], kind: str, payload: Any = None, size: int = 0, **headers: Any
) -> Message:
    """Build a message stamped with ``node.node_id`` as its source.

    Both hosts of the broadcast groups bind this as their ``make_message``
    method: the simulator's :class:`~repro.amoeba.node.Node` and the real
    backend's :class:`~repro.net.host.RealNode`.
    """
    # ``headers`` is already a fresh dict (built from the ** call), so it
    # is handed to the Message without another copy.
    return Message(
        src=node.node_id, dst=dst, kind=kind, payload=payload, size=size, headers=headers
    )
