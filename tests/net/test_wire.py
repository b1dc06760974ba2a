"""Tests for the real backend's wire framing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.amoeba.message import Message
from repro.errors import NetworkError
from repro.net.wire import (MAX_FRAME, StreamDecoder, decode_message,
                            encode_message, jsonify)


def make_message(**overrides):
    fields = dict(src=1, dst=2, kind="net.data", payload={"seqno": 7},
                  headers={"shard": 0})
    fields.update(overrides)
    return Message(**fields)


class TestJsonify:
    def test_passes_native_values(self):
        value = {"a": [1, 2.5, "x", None, True]}
        assert jsonify(value) == value

    def test_normalises_tuples_to_lists(self):
        assert jsonify({"t": (1, (2, 3))}) == {"t": [1, [2, 3]]}

    def test_rejects_non_json_values(self):
        with pytest.raises(NetworkError):
            jsonify({"bad": object()})

    def test_coerces_keys_to_strings(self):
        assert jsonify({1: "x"}) == {"1": "x"}


class TestCodec:
    def test_round_trip_unicast(self):
        msg = make_message()
        decoded = decode_message(encode_message(msg))
        assert decoded.src == msg.src
        assert decoded.dst == msg.dst
        assert decoded.kind == msg.kind
        assert decoded.payload == msg.payload
        assert decoded.headers == msg.headers
        assert decoded.msg_id == msg.msg_id

    def test_round_trip_broadcast(self):
        msg = make_message(dst=None)
        decoded = decode_message(encode_message(msg))
        assert decoded.is_broadcast

    def test_tuples_survive_as_lists(self):
        msg = make_message(payload={"client": (3, 0), "args": (1,)})
        decoded = decode_message(encode_message(msg))
        assert decoded.payload == {"client": [3, 0], "args": [1]}

    def test_decoded_size_is_the_senders_frame_length(self):
        # ``size`` is not transmitted: the sender's estimate prices the
        # simulated network, and on real sockets the frame is the size.
        frame = encode_message(make_message(size=7))
        assert decode_message(frame).size == len(frame)

    def test_length_prefix_matches_body(self):
        frame = encode_message(make_message())
        body_len = int.from_bytes(frame[:4], "big")
        assert len(frame) == 4 + body_len

    def test_truncated_frame_rejected(self):
        frame = encode_message(make_message())
        with pytest.raises(NetworkError):
            decode_message(frame[:-1])

    def test_oversized_payload_rejected(self):
        msg = make_message(payload={"blob": "x" * (MAX_FRAME + 1)})
        with pytest.raises(NetworkError):
            encode_message(msg)

    def test_unencodable_payload_rejected(self):
        with pytest.raises(NetworkError):
            encode_message(make_message(payload={"obj": object()}))


#: What protocol payloads are made of: nested tuples, lists and dicts keyed
#: by ints or strings, over JSON scalars (no NaN: it is not equal to itself).
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                     st.floats(allow_nan=False))
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=8)), inner,
                        max_size=4),
    ),
    max_leaves=20,
)


class TestCodecNormalForm:
    @given(_payloads)
    def test_round_trip_equals_jsonify(self, payload):
        # The encoder has no jsonify pre-pass; json's own single walk must
        # still land every payload in the jsonify normal form.
        decoded = decode_message(encode_message(make_message(payload=payload)))
        assert decoded.payload == jsonify(payload)


class TestStreamDecoder:
    def test_reassembles_across_arbitrary_chunks(self):
        messages = [make_message(payload={"n": n}) for n in range(5)]
        stream = b"".join(encode_message(msg) for msg in messages)
        decoder = StreamDecoder()
        out = []
        for i in range(0, len(stream), 3):
            out.extend(decoder.feed(stream[i:i + 3]))
        assert [msg.payload["n"] for msg in out] == [0, 1, 2, 3, 4]

    def test_multiple_messages_in_one_chunk(self):
        stream = encode_message(make_message(payload={"n": 1}))
        stream += encode_message(make_message(payload={"n": 2}))
        out = StreamDecoder().feed(stream)
        assert [msg.payload["n"] for msg in out] == [1, 2]
