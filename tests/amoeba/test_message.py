"""Tests for message construction and size estimation."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.amoeba.message import Message, estimate_size


def recursive_estimate(value):
    """The original recursive ``estimate_size`` the fast path must match."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (str, bytes, bytearray)):
        return max(1, len(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(recursive_estimate(item) for item in value)
    if isinstance(value, dict):
        return 8 + sum(
            recursive_estimate(k) + recursive_estimate(v) for k, v in value.items()
        )
    marshal_size = getattr(value, "marshal_size", None)
    if callable(marshal_size):
        return int(marshal_size())
    return 64


class _Blob:
    def __init__(self, size):
        self._size = size

    def marshal_size(self):
        return self._size


class _Opaque:
    pass


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.builds(bytearray, st.binary(max_size=6)),
    st.frozensets(st.integers(), max_size=4),
    st.builds(_Blob, st.integers(min_value=0, max_value=500)),
    st.builds(_Opaque),
)

#: Nested payloads mixing every branch: containers of scalars, dicts with
#: string keys (the cached header-shape path), dicts with non-string keys,
#: and custom marshal_size / opaque objects at any depth.
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.dictionaries(
            st.one_of(st.integers(), st.tuples(st.integers(), st.text(max_size=3))),
            children,
            max_size=3,
        ),
    ),
    max_leaves=25,
)


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8

    def test_strings_and_bytes(self):
        assert estimate_size("hello") == 5
        assert estimate_size(b"abc") == 3

    def test_containers_include_framing(self):
        assert estimate_size([1, 2, 3]) == 8 + 24
        assert estimate_size({"a": 1}) == 8 + 1 + 8

    def test_custom_marshal_size(self):
        class Blob:
            def marshal_size(self):
                return 1000

        assert estimate_size(Blob()) == 1000

    def test_unknown_objects_get_default(self):
        class Opaque:
            pass

        assert estimate_size(Opaque()) == 64

    @given(st.recursive(
        st.one_of(st.integers(), st.text(max_size=20), st.booleans(), st.none()),
        lambda children: st.lists(children, max_size=5),
        max_leaves=20,
    ))
    def test_size_is_always_positive(self, value):
        assert estimate_size(value) >= 1

    @given(_payloads)
    def test_fast_path_matches_recursive_reference(self, value):
        assert estimate_size(value) == recursive_estimate(value)

    def test_deeply_nested_payload_does_not_recurse(self):
        value = 7
        for _ in range(5000):  # far past the default recursion limit
            value = [value]
        assert estimate_size(value) == 5000 * 8 + 8

    def test_repeated_dict_shapes_stay_consistent(self):
        # Header-shaped dicts hit the keys-size cache; the answer must not
        # drift between the cold and cached lookups.
        payload = {"seq": 1, "origin": 2, "view": 3}
        first = estimate_size(payload)
        assert estimate_size(dict(payload)) == first
        assert first == recursive_estimate(payload)


class TestMessage:
    def test_size_estimated_when_omitted(self):
        msg = Message(src=0, dst=1, kind="x", payload="hello")
        assert msg.size == 5

    def test_explicit_size_respected(self):
        msg = Message(src=0, dst=1, kind="x", payload="hello", size=4000)
        assert msg.size == 4000

    def test_broadcast_flag(self):
        assert Message(src=0, dst=None, kind="x").is_broadcast
        assert not Message(src=0, dst=3, kind="x").is_broadcast

    def test_unique_ids(self):
        a = Message(src=0, dst=1, kind="x")
        b = Message(src=0, dst=1, kind="x")
        assert a.msg_id != b.msg_id
