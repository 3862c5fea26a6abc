"""The sequence encoder's scalar fast path against the encoder it replaced.

``_enc_seq`` appends exact ``str``, ``int`` and ``bytes`` elements and
fragments itself instead of dispatching each through the handler table.
:func:`reference_encode` runs the canonical encoder with ``_enc_seq``
swapped back to its recursive form, one ``encode_into`` per element — the
way ``oracle_root`` keeps the state root as it was before the leaf table —
and the property holds the two to the same bytes over nested values of
every kind the encoder takes.
"""

import dataclasses
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import encoding
from repro.crypto.encoding import canonical_body, canonical_encode, encode_into
from repro.crypto.keys import KeyPair
from repro.hierarchy.crossmsg import CrossMsg
from repro.hierarchy.subnet_id import ROOTNET, SubnetID
from repro.vm.exitcode import ExitCode


def reference_seq(out: bytearray, value) -> None:
    """``_enc_seq`` before the fast path: every element dispatches."""
    out += b"l%d:" % len(value)
    for item in value:
        encode_into(out, item)


def reference_encode(value) -> bytes:
    handlers = encoding._HANDLERS
    saved = handlers[list], handlers[tuple], encoding._enc_seq
    handlers[list] = handlers[tuple] = encoding._enc_seq = reference_seq
    try:
        return canonical_encode(value)
    finally:
        handlers[list], handlers[tuple], encoding._enc_seq = saved


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
values = st.recursive(
    hashables | st.binary(max_size=8).map(bytearray),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=3)
    | st.sets(hashables, max_size=3),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_fast_path_encodes_what_the_reference_does(tree):
    assert canonical_encode(cold(tree)) == reference_encode(cold(tree))


def test_fast_path_takes_every_scalar_kind():
    msg = CrossMsg(SubnetID("/root/a"), ADDRESSES[0], ROOTNET, ADDRESSES[1], 2**64)
    row = ("s", -(2**63) - 1, b"b", canonical_body(msg), msg, True, ExitCode.USR_NOT_FOUND,
           _Str("s"), _Int(-1), _Bytes(b"x"), bytearray(b"y"), 1.5, None, [("t", 2)])
    assert canonical_encode(row) == reference_encode(cold(row))
