"""Unit tests for CIDs.

A CID is its 32-byte digest: hashing, equality and ordering are bytes',
it equals its raw digest, and it still encodes as an object, never as
plain bytes."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.cid import CID, cid_of
from repro.crypto.encoding import canonical_encode

digests = st.binary(min_size=32, max_size=32)


def test_equal_content_equal_cid():
    assert cid_of({"a": 1}) == cid_of({"a": 1})


def test_different_content_different_cid():
    assert cid_of("x") != cid_of("y")


def test_cid_is_hashable_and_usable_as_key():
    mapping = {cid_of(1): "one"}
    assert mapping[cid_of(1)] == "one"


def test_cid_roundtrips_hex():
    cid = cid_of("roundtrip")
    assert CID.from_hex(cid.hex()) == cid
    assert CID.from_hex(str(cid)) == cid
    assert type(CID.from_hex(str(cid))) is CID


def test_cid_requires_32_bytes():
    with pytest.raises(ValueError):
        CID(b"short")


def test_cid_is_immutable():
    cid = cid_of("x")
    with pytest.raises(AttributeError):
        cid.digest = b"0" * 32


def test_cid_short_form_is_prefix():
    cid = cid_of("abc")
    assert str(cid).startswith(cid.short())
    assert repr(cid) == f"CID({cid.short()})"


def test_cid_ordering_is_total():
    cids = sorted([cid_of(i) for i in range(10)])
    assert cids == sorted(cids)


def test_cid_embeds_in_canonical_encoding():
    inner = cid_of("inner")
    assert str(inner) == "bafy5d32d09193105a5151c92be2621fc8e0173af2e48ef0d82c1aca03f8dae4c2b3"
    assert str(cid_of({"link": inner, "list": [inner]})) == (
        "bafy01984d366b4c0cc0a80466bafe4644f64b36b1bbdf498a7f91956a453237ca1e"
    )


@given(st.integers() | st.text(max_size=30))
def test_cid_deterministic(value):
    assert cid_of(value) == cid_of(value)


@given(digests)
def test_cid_encodes_as_an_object_alone_and_inside_containers(digest):
    cid = CID(digest)
    encoded = b"os3:CIDb32:" + digest
    assert canonical_encode(cid) == encoded
    assert canonical_encode([cid]) == b"l1:" + encoded
    assert canonical_encode((cid, digest)) == b"l2:" + encoded + b"b32:" + digest
    assert canonical_encode({"k": cid}) == b"d1:s1:k" + encoded
    assert type(cid.to_canonical()) is bytes and cid.to_canonical() == digest


@given(digests, digests)
def test_cid_hashes_and_orders_as_its_bytes(a, b):
    assert hash(CID(a)) == hash(a)
    assert (CID(a) < CID(b)) == (a < b)
    assert sorted([CID(b), CID(a)]) == sorted([b, a])


@given(digests)
def test_a_cid_equals_its_raw_digest(digest):
    cid = CID(digest)
    assert cid == digest and digest == cid
    assert {digest: "raw"}[cid] == "raw"
    assert len({cid, digest}) == 1


@given(digests)
def test_pickle_and_copy_return_a_cid(digest):
    cid = CID(digest)
    clones = [copy.copy(cid), copy.deepcopy(cid)]
    clones += [pickle.loads(pickle.dumps(cid, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert type(clone) is CID and clone == cid


@given(st.binary(max_size=64).filter(lambda raw: len(raw) != 32))
def test_cid_refuses_other_lengths(raw):
    with pytest.raises(ValueError):
        CID(raw)


@pytest.mark.parametrize("value", ["a" * 32, bytearray(32), 0, list(range(32)), None])
def test_cid_refuses_what_is_not_bytes(value):
    with pytest.raises(ValueError):
        CID(value)
