"""Wire framing: length-prefixed JSON encoding of the existing Message type.

One frame is a 4-byte big-endian payload length followed by a UTF-8 JSON
array of the :class:`~repro.amoeba.message.Message` fields ``src, dst, kind,
payload, headers, msg_id`` (no field names to encode and parse).  On the UDP
data plane one datagram carries exactly one frame (the prefix doubles as a
truncation check); on TCP streams frames are concatenated and
:class:`StreamDecoder` re-splits them.

JSON cannot tell tuples from lists or int keys from string keys: a decoded
payload is in the normal form :func:`jsonify` describes (lists, string keys).
The encoder gets there in the one pass ``json`` makes anyway; ``jsonify``
is for values that must be in that form *without* crossing the wire: state
snapshots (the control plane, the oracle) and a primary's write result.  A
write's body is encoded once, by :func:`wire_text`: an ordered body crosses
its group as that text and every replica, a local seat too, applies
:func:`from_wire` of it.

``Message.size`` is the simulator's network-cost estimate and means nothing
here, so it is not transmitted: a decoded message's ``size`` is the length
of the frame it arrived in.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterator, List

from ..amoeba.message import Message
from ..errors import NetworkError

#: Largest frame the backend will encode or accept.  Loopback UDP handles
#: ~64 KiB datagrams; protocol messages (including takeover state snapshots
#: for the small workload objects) stay far below this.
MAX_FRAME = 60_000

_PREFIX = struct.Struct(">I")
_encode_json = json.JSONEncoder(separators=(",", ":")).encode
_decode_json = json.JSONDecoder().raw_decode  # no whitespace scans, unlike loads


def jsonify(value: Any) -> Any:
    """Recursively normalise ``value`` into JSON-native types.

    Tuples become lists, dict keys become strings; anything not JSON-native
    raises :class:`NetworkError` so protocol bugs fail loudly at the sender
    rather than as a decode error at the receiver.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    raise NetworkError(f"value {value!r} is not wire-encodable")


#: Room a frame needs around the body it carries (the envelope, the kind,
#: the numbers of a sequenced record).
ENVELOPE = 256


def wire_text(body: Any) -> str:
    """``body`` as JSON text, checked to fit a frame as a string field.
    Raises :class:`NetworkError` if JSON cannot carry it or a frame cannot."""
    try:
        text = _encode_json(body)
    except (TypeError, ValueError) as exc:
        raise NetworkError(f"body is not wire-encodable: {exc}") from None
    # ``ensure_ascii`` leaves ``text`` printable ASCII, so as a string field
    # it grows by its two quotes and one backslash per ``"`` and ``\``.
    framed = len(text) + 2 + text.count('"') + text.count("\\")
    if framed > MAX_FRAME - ENVELOPE:
        raise NetworkError(
            f"a body of {framed} bytes does not fit a frame (wire limit {MAX_FRAME})")
    return text


def from_wire(text: str) -> Any:
    """The value :func:`wire_text` encoded, in normal form (a copy)."""
    return _decode_json(text)[0]


def encode_message(msg: Message) -> bytes:
    """Encode one message as a length-prefixed JSON frame.

    Raises :class:`NetworkError` for a payload JSON cannot carry, so a
    protocol bug fails loudly at the sender.
    """
    try:
        body = _encode_json(
            [msg.src, msg.dst, msg.kind, msg.payload, msg.headers, msg.msg_id]
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise NetworkError(f"message {msg.kind!r} is not wire-encodable: {exc}") from None
    if len(body) > MAX_FRAME:
        raise NetworkError(
            f"message {msg.kind!r} encodes to {len(body)} bytes "
            f"(wire limit {MAX_FRAME})")
    return _PREFIX.pack(len(body)) + body


def decode_message(frame: bytes) -> Message:
    """Decode one complete frame back into a Message.

    Raises :class:`NetworkError` on truncated or trailing bytes, so a
    corrupted datagram is dropped by the caller instead of half-parsed.
    """
    if len(frame) < _PREFIX.size:
        raise NetworkError(f"short frame: {len(frame)} bytes")
    (length,) = _PREFIX.unpack_from(frame)
    body = frame[_PREFIX.size:]
    if length != len(body) or length > MAX_FRAME:
        raise NetworkError(
            f"frame length mismatch: prefix {length}, body {len(body)}")
    text = body.decode("utf-8")
    fields, end = _decode_json(text)
    if end != len(text):
        raise NetworkError(f"trailing bytes after the message: {len(text) - end}")
    src, dst, kind, payload, headers, msg_id = fields
    return Message(src=src, dst=dst, kind=kind, payload=payload, size=len(frame),
                   headers=headers, msg_id=msg_id)


class StreamDecoder:
    """Incremental frame splitter for TCP byte streams."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Message]:
        """Add bytes; return every message completed by them (in order)."""
        self._buffer.extend(data)
        return list(self._drain())

    def _drain(self) -> Iterator[Message]:
        while True:
            if len(self._buffer) < _PREFIX.size:
                return
            (length,) = _PREFIX.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise NetworkError(f"oversized frame announced: {length}")
            end = _PREFIX.size + length
            if len(self._buffer) < end:
                return
            frame = bytes(self._buffer[:end])
            del self._buffer[:end]
            yield decode_message(frame)
