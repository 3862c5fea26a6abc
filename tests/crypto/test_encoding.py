"""Unit and property tests for canonical encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.encoding import EncodingError, canonical_encode, encode_into


def test_primitives_encode():
    for value in (None, True, False, 0, -5, 3.14, "text", b"bytes"):
        assert isinstance(canonical_encode(value), bytes)


def test_dict_ordering_is_canonical():
    assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})


def test_set_ordering_is_canonical():
    assert canonical_encode({3, 1, 2}) == canonical_encode({2, 3, 1})


def test_distinct_types_encode_differently():
    assert canonical_encode(1) != canonical_encode("1")
    assert canonical_encode(b"1") != canonical_encode("1")
    assert canonical_encode(True) != canonical_encode(1)
    assert canonical_encode([]) != canonical_encode({})


def test_nested_structures():
    value = {"k": [1, "two", {"inner": b"x"}], "l": (None, True)}
    assert canonical_encode(value) == canonical_encode(value)


def test_object_with_to_canonical():
    class Thing:
        def to_canonical(self):
            return ("thing", 42)

    assert canonical_encode(Thing()) == canonical_encode(Thing())


def test_unknown_type_is_error():
    class Opaque:
        pass

    with pytest.raises(EncodingError):
        canonical_encode(Opaque())


def test_length_prefix_prevents_concatenation_ambiguity():
    assert canonical_encode(["ab", "c"]) != canonical_encode(["a", "bc"])


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.text(max_size=20)
    | st.binary(max_size=20)
)
json_like = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(json_like)
def test_encoding_is_deterministic(value):
    assert canonical_encode(value) == canonical_encode(value)


@given(json_like, json_like)
def test_distinct_values_encode_distinctly(a, b):
    if a != b:
        assert canonical_encode(a) != canonical_encode(b)


class _Record:
    """A protocol-object stand-in: encodes through ``to_canonical``."""

    def __init__(self, payload):
        self.payload = payload

    def to_canonical(self):
        return ("record", self.payload)


# The identity below is about keys and framing; a leaf only has to be *some*
# value of each encodable shape (scalar, record, tuple, nested dict), so the
# leaves recurse over scalars, not over json_like's own recursion — which
# made this the one tier-1 test over its 3 s budget (ROADMAP item 7).
leaf_values = st.recursive(
    scalars | st.builds(_Record, st.lists(scalars, max_size=3)),
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@given(st.dictionaries(st.text(max_size=12), leaf_values, max_size=8))
def test_dict_encoding_is_header_plus_sorted_leaves(mapping):
    """The identity the incremental state root rests on: a string-keyed
    dict encodes as ``d<n>:`` followed by ``enc(key) + enc(value)`` per key
    in sorted key order, so per-key leaves can be cached and re-joined."""
    out = bytearray(b"d%d:" % len(mapping))
    for key in sorted(mapping):
        leaf = bytearray()
        encode_into(leaf, key)
        encode_into(leaf, mapping[key])
        out += bytes(leaf)
    assert bytes(out) == canonical_encode(mapping)


def test_encode_into_appends_and_matches_canonical_encode():
    out = bytearray(b"prefix")
    encode_into(out, {"k": (1, _Record([b"x"]))})
    assert bytes(out) == b"prefix" + canonical_encode({"k": (1, _Record([b"x"]))})
