"""The encoder's fast paths against the encoder they replaced.

``_enc_seq`` appends exact ``str``, ``int``, ``bytes`` and ``None``
elements and fragments itself instead of dispatching each through the
handler table, and ``_enc_dict`` sorts a mapping whose keys are all exact
``str`` plainly and appends its keys itself.  :func:`reference_encode` runs
the canonical encoder with both swapped back to their earlier forms — one
``encode_into`` per element (``None`` included), and every mapping sorted
by stringified key with each key dispatched — the way ``oracle_root`` keeps
the state root as it was before the leaf table, and the property holds the
two to the same bytes, or the same refusal, over nested values of every
kind the encoder takes.
"""

import dataclasses
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import encoding
from repro.crypto.encoding import EncodingError, canonical_body, canonical_encode, encode_into
from repro.crypto.keys import KeyPair
from repro.hierarchy.crossmsg import CrossMsg
from repro.hierarchy.subnet_id import ROOTNET, SubnetID
from repro.vm.exitcode import ExitCode


def reference_seq(out: bytearray, value) -> None:
    """``_enc_seq`` before the fast path: every element dispatches."""
    out += b"l%d:" % len(value)
    for item in value:
        encode_into(out, item)


def reference_dict(out: bytearray, value: dict) -> None:
    """``_enc_dict`` before the fast path: every mapping sorts by its keys'
    text, and every key dispatches."""
    items = sorted(value.items(), key=lambda kv: str(kv[0]))
    out += b"d%d:" % len(items)
    last = None
    for key, item in items:
        if type(key) is not str:
            text = str(key)
            if text == last or (text != key and text in value):
                raise EncodingError(f"mapping keys collide once stringified: {text!r}")
            last = key = text
        encode_into(out, key)
        encode_into(out, item)


def reference_encode(value) -> bytes:
    handlers = encoding._HANDLERS
    saved = handlers[list], handlers[tuple], handlers[dict], encoding._enc_seq, encoding._enc_dict
    handlers[list] = handlers[tuple] = encoding._enc_seq = reference_seq
    handlers[dict] = encoding._enc_dict = reference_dict
    try:
        return canonical_encode(value)
    finally:
        (handlers[list], handlers[tuple], handlers[dict], encoding._enc_seq,
         encoding._enc_dict) = saved


def encoded_or_refused(encode, value):
    """The bytes, or ``EncodingError`` itself when *value* has none."""
    try:
        return encode(value)
    except EncodingError:
        return EncodingError


class _Str(str):
    pass


class _Int(int):
    pass


class _Bytes(bytes):
    pass


@dataclasses.dataclass(frozen=True)
class _Record:
    """A ``to_canonical`` object that carries no bytes."""

    payload: Any

    def to_canonical(self):
        return ("record", self.payload)


@dataclasses.dataclass(frozen=True)
class _Body:
    """Stands for ``canonical_body(msg)`` until :func:`cold` makes it."""

    msg: CrossMsg


def cold(tree):
    """A twin of *tree* whose cross-msgs carry no bytes yet, so the encoder
    that reads it makes every fragment itself."""
    kind = type(tree)
    if kind is CrossMsg:
        return dataclasses.replace(tree)
    if kind is _Body:
        return canonical_body(dataclasses.replace(tree.msg))
    if kind is _Record:
        return _Record(cold(tree.payload))
    if kind is dict:
        return {key: cold(item) for key, item in tree.items()}
    if kind in (list, tuple, set, frozenset):
        return kind(cold(item) for item in tree)
    return tree


ADDRESSES = [KeyPair(name).address for name in ("enc-alice", "enc-bob")]
cross_msgs = st.builds(
    CrossMsg,
    from_subnet=st.just(SubnetID("/root/a")),
    from_addr=st.sampled_from(ADDRESSES),
    to_subnet=st.sampled_from([ROOTNET, SubnetID("/root/b")]),
    to_addr=st.sampled_from(ADDRESSES),
    value=st.integers(min_value=0, max_value=2**70),
    params=st.none() | st.text(max_size=4) | st.tuples(st.integers(), st.binary(max_size=4)),
    origin_nonce=st.integers(min_value=0, max_value=9),
)
hashable_scalars = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.text(max_size=8).map(_Str)
    | st.integers(min_value=-(2**70), max_value=2**70).map(_Int)
    | st.binary(max_size=8).map(_Bytes)
    | st.sampled_from(ExitCode)
    | cross_msgs
    | cross_msgs.map(_Body)
)
hashables = st.recursive(
    hashable_scalars,
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.frozensets(children, max_size=3)
    | st.builds(_Record, children),
    max_leaves=8,
)
# Keys of one kind, or mixed: ints and strings that may spell the same text
# ("1" and 1) and str subclasses, which take the stringifying path.
mapping_keys = (
    st.text(max_size=6)
    | st.text(alphabet="12", max_size=2).map(_Str)
    | st.integers(min_value=0, max_value=12)
    | st.sampled_from(["1", "2", "10", "None", "True"])
    | st.none()
    | st.booleans()
)
values = st.recursive(
    hashables | st.binary(max_size=8).map(bytearray),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=3)
    | st.dictionaries(mapping_keys, children, max_size=3)
    | st.sets(hashables, max_size=3),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_fast_path_encodes_what_the_reference_does(tree):
    assert encoded_or_refused(canonical_encode, cold(tree)) == encoded_or_refused(
        reference_encode, cold(tree))


def test_mixed_keys_that_stringify_alike_are_still_refused():
    for mapping in ({1: "a", "1": "b"}, {"1": "b", 1: "a"}, {True: 0, "True": 1},
                    {None: 0, "None": 1}, {"k": 0, _Str("1"): 1, 1: 2}):
        for tree in (mapping, [None, mapping], {"outer": mapping}):
            for encode in (canonical_encode, reference_encode):
                with pytest.raises(EncodingError):
                    encode(tree)
    # One key text per key: the same bytes either way, ``str`` keys or not.
    assert canonical_encode({"b": None, "a": [None]}) == reference_encode(
        {"b": None, "a": [None]}) == b"d2:s1:al1:Ns1:bN"
    assert canonical_encode({2: "x", "10": "y"}) == reference_encode({2: "x", "10": "y"})


def test_fast_path_takes_every_scalar_kind():
    msg = CrossMsg(SubnetID("/root/a"), ADDRESSES[0], ROOTNET, ADDRESSES[1], 2**64)
    row = ("s", -(2**63) - 1, b"b", canonical_body(msg), msg, True, ExitCode.USR_NOT_FOUND,
           _Str("s"), _Int(-1), _Bytes(b"x"), bytearray(b"y"), 1.5, None, [("t", 2)])
    assert canonical_encode(row) == reference_encode(cold(row))
