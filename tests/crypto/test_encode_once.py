"""Encode once: what immutable protocol values carry, and that carrying it
never changes a byte.

The reference encoder below is memo-free by construction: it builds each
type's layout from the *fields* (the ``to_canonical`` layouts as they stood
before values carried anything) and never calls a parent's
``to_canonical`` or reads ``_body`` / ``_cid``.
"""

import copy
import dataclasses
import gc
import hashlib
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader, FullBlock
from repro.consensus.tendermint import Vote
from repro.crypto.cid import CID, cid_of
from repro.crypto.encoding import EncodingError, canonical_encode
from repro.crypto.keys import KeyPair
from repro.crypto.signature import message_digest, sign
from repro.crypto.threshold import ThresholdSignature
from repro.hierarchy.checkpoint import (
    Checkpoint,
    CrossMsgMeta,
    SignedCheckpoint,
    ZERO_CHECKPOINT,
)
from repro.hierarchy.crossmsg import ApplyBottomUp, ApplyTopDown, CrossMsg, batch_cid
from repro.hierarchy.subnet_id import SubnetID
from repro.net.gossip import PubsubEnvelope
from repro.sim.tracing import TraceRecord
from repro.storage.statetree import StateTree
from repro.vm.exitcode import ExitCode
from repro.vm.message import Message, Receipt, SignedMessage

KEYS = [KeyPair(name) for name in ("alice", "bob", "carol")]
ALICE, BOB = KEYS[0], KEYS[1]
SUBNETS = [SubnetID(path) for path in ("/root", "/root/a", "/root/a/b", "/root/c")]
MEMO_NAMES = ("_cid", "_body", "_msg_digest", "_sig_ok", "_mr_ok")


# ----------------------------------------------------------------------
# The memo-free reference
# ----------------------------------------------------------------------
def _body_of_params(params):
    return ref_body(params) if hasattr(params, "to_canonical") else params


def _signatures_body(signatures):
    if isinstance(signatures, tuple):
        return tuple(ref_body(s) for s in signatures)
    if hasattr(signatures, "to_canonical"):
        return ref_body(signatures)
    return signatures


LAYOUTS = {
    CrossMsg: lambda m: (
        m.from_subnet.path, m.from_addr.raw, m.to_subnet.path, m.to_addr.raw,
        m.value, m.method, _body_of_params(m.params), m.kind, m.origin_nonce,
    ),
    ApplyTopDown: lambda p: ("apply-topdown", ref_body(p.message), p.nonce),
    ApplyBottomUp: lambda p: (
        "apply-bottomup", p.nonce, tuple(ref_body(m) for m in p.messages),
    ),
    Message: lambda m: (
        m.from_addr.raw, m.to_addr.raw, m.value, m.method,
        _body_of_params(m.params), m.nonce, m.gas_limit,
    ),
    SignedMessage: lambda s: (ref_body(s.message), ref_body(s.signature)),
    CrossMsgMeta: lambda m: (
        m.from_subnet.path, m.to_subnet.path, m.nonce, m.msgs_cid.digest, m.count, m.value,
    ),
    Checkpoint: lambda c: (
        c.source.path, c.proof.digest, c.prev.digest,
        tuple((path, cid.digest) for path, cid in c.children),
        tuple(ref_body(meta) for meta in c.cross_meta),
        c.window, c.epoch,
    ),
    SignedCheckpoint: lambda s: (ref_body(s.checkpoint), _signatures_body(s.signatures)),
    BlockHeader: lambda h: (
        h.subnet_id, h.height, h.parent.digest, h.state_root.digest,
        h.messages_root.digest, h.timestamp, h.miner.raw, h.consensus_data,
    ),
    FullBlock: lambda b: (
        ref_body(b.header),
        tuple(ref_body(m) for m in b.messages),
        tuple(ref_body(m) for m in b.cross_messages),
    ),
}


def ref_body(value):
    """The tuple a value encodes as — leaves (addresses, CIDs, signatures)
    carry nothing, so their own ``to_canonical`` is already memo-free."""
    layout = LAYOUTS.get(type(value))
    return layout(value) if layout else value.to_canonical()


def ref_encode(value) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        text = str(value).encode("ascii")
        return b"i%d:" % len(text) + text
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, str):
        text = value.encode("utf-8")
        return b"s%d:" % len(text) + text
    if isinstance(value, (bytes, bytearray)):
        return b"b%d:" % len(value) + bytes(value)
    if isinstance(value, (list, tuple)):
        return b"l%d:" % len(value) + b"".join(ref_encode(item) for item in value)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return b"d%d:" % len(items) + b"".join(
            ref_encode(str(key)) + ref_encode(item) for key, item in items
        )
    return b"o" + ref_encode(type(value).__name__) + ref_encode(ref_body(value))


class _Reference:
    """Stands in for a stored protocol value: same layout, nothing carried."""

    def __init__(self, value):
        self.value = value

    def to_canonical(self):
        return ref_body(self.value)


def ref_commit(value):
    """A stored value with every protocol object swapped for its memo-free
    stand-in (the state tree commits to an object's body, not its name)."""
    if hasattr(value, "to_canonical"):
        return _Reference(value)
    if isinstance(value, dict):
        return {key: ref_commit(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_commit(item) for item in value]
    return value


def carriers(value):
    """Every value inside *value* (itself included) that keeps a memo."""
    found = []

    def walk(node):
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            if any(field.name in MEMO_NAMES for field in dataclasses.fields(node)):
                found.append(node)
            for field in dataclasses.fields(node):
                if field.name not in MEMO_NAMES:
                    walk(getattr(node, field.name))
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for item in node.values():
                walk(item)

    walk(value)
    return found


# ----------------------------------------------------------------------
# Strategies — every draw builds fresh (cold) instances
# ----------------------------------------------------------------------
addresses = st.sampled_from([key.address for key in KEYS])
cids = st.binary(min_size=32, max_size=32).map(CID)
plain = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.text(max_size=6)
    | st.binary(max_size=6) | addresses,
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
routes = st.tuples(st.sampled_from(SUBNETS), st.sampled_from(SUBNETS)).filter(
    lambda pair: pair[0] != pair[1]
)
crossmsgs = st.builds(
    lambda route, sender, to, value, method, params, kind, nonce: CrossMsg(
        route[0], sender, route[1], to, value, method, params, kind, nonce
    ),
    routes, addresses, addresses, st.integers(0, 10**24), st.sampled_from(["send", "ping"]),
    plain, st.sampled_from(["user", "revert", "atomic"]), st.integers(0, 10**6),
)
batches = st.lists(crossmsgs, min_size=1, max_size=4).map(tuple)
topdowns = st.builds(ApplyTopDown, crossmsgs, st.integers(0, 10**6))
bottomups = st.builds(ApplyBottomUp, st.integers(0, 10**6), batches)
messages = st.builds(
    Message, addresses, addresses, st.integers(0, 10**24), st.sampled_from(["send", "call"]),
    plain | crossmsgs | st.fixed_dictionaries({"message": crossmsgs, "nonce": st.integers(0, 9)}),
    st.integers(0, 10**6),
)
signed_messages = st.builds(lambda message: SignedMessage(message, sign(ALICE, message)), messages)
metas = st.builds(
    CrossMsgMeta, st.sampled_from(SUBNETS), st.sampled_from(SUBNETS), st.integers(0, 99),
    cids, st.integers(0, 9), st.integers(0, 10**12),
)
checkpoints = st.builds(
    Checkpoint, st.sampled_from(SUBNETS), cids, cids,
    st.lists(st.tuples(st.sampled_from(["/root/a/b", "/root/c"]), cids), max_size=2).map(tuple),
    st.lists(metas, max_size=3).map(tuple), st.integers(0, 99), st.integers(0, 999),
)
signature_bundles = (
    st.lists(st.sampled_from(KEYS), min_size=1, max_size=3).map(
        lambda keys: tuple(sign(key, "payload") for key in keys)
    )
    | st.builds(ThresholdSignature, st.text(max_size=6), st.binary(max_size=8),
                st.lists(st.integers(1, 7), max_size=3).map(tuple))
)
signed_checkpoints = st.builds(SignedCheckpoint, checkpoints, signature_bundles)
headers = st.builds(
    BlockHeader, st.sampled_from(["/root", "/root/a"]), st.integers(0, 10**6), cids, cids, cids,
    st.floats(0, 1e6), addresses,
    st.dictionaries(st.text(max_size=4), st.integers(0, 99) | st.binary(max_size=4), max_size=3),
)
full_blocks = st.builds(
    FullBlock, headers, st.lists(signed_messages, max_size=2).map(tuple),
    st.lists(topdowns | bottomups, max_size=2).map(tuple),
)
protocol_values = (
    crossmsgs | topdowns | bottomups | messages | signed_messages | metas | checkpoints
    | signed_checkpoints | headers | full_blocks
)


def _warm(values) -> None:
    for value in values:
        assert value.cid.digest == hashlib.sha256(ref_encode(value)).digest()


# ----------------------------------------------------------------------
# (i) Same bytes as the memo-free reference: cold, warm, any warming order
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(protocol_values, st.booleans())
def test_encoding_matches_memo_free_reference(value, children_first):
    expected = ref_encode(value)
    children = [node for node in carriers(value) if node is not value and hasattr(node, "cid")]
    if children_first:
        _warm(children)
    assert canonical_encode(value) == expected  # the parent is cold here
    _warm(children)
    assert canonical_encode(value) == expected
    if hasattr(type(value), "cid") and type(value) is not FullBlock:
        digest = hashlib.sha256(expected).digest()
        assert value.cid.digest == digest  # computes and keeps it
        assert value.cid.digest == digest  # reads what it kept
        assert cid_of(value).digest == digest
    assert canonical_encode(value) == expected
    assert ref_encode(value) == expected  # nothing a memo wrote reaches the fields


@settings(max_examples=60, deadline=None)
@given(batches, st.booleans())
def test_batch_cid_and_registry_leaf_match_reference(batch, warm_first):
    if warm_first:
        _warm(batch)
    expected = hashlib.sha256(ref_encode(batch)).digest()
    assert batch_cid(batch).digest == expected
    assert batch_cid(list(batch)).digest == expected  # any ordered container

    stored = {"registry/x": batch, "queue": [batch[0], {"m": batch[-1]}], "n": 7}
    carried, plain_tree = StateTree(), StateTree()
    for key, value in stored.items():
        carried.set(key, value)
        plain_tree.set(key, ref_commit(value))
    assert carried.root() == plain_tree.root()
    _warm(batch)
    assert batch_cid(batch).digest == expected
    rewritten = StateTree()
    for key, value in stored.items():
        rewritten.set(key, value)
    assert rewritten.root() == plain_tree.root()  # leaves built from warm messages


# ----------------------------------------------------------------------
# (ii) CIDs of fixed values, captured at the commit before values carried
# their bytes (7b81b1a)
# ----------------------------------------------------------------------
def _fixed_values():
    sub, root = SubnetID("/root/a/b"), SubnetID("/root")
    up = CrossMsg(sub, ALICE.address, root, BOB.address, 150, origin_nonce=3)
    call = CrossMsg(
        root, BOB.address, sub, ALICE.address, 7, method="ping",
        params={"n": 1, "tags": ("x", b"\x00y"), "to": BOB.address}, kind="user", origin_nonce=4,
    )
    batch = (up, up.make_revert(), CrossMsg(sub, BOB.address, SubnetID("/root/c"), ALICE.address, 0))
    meta = CrossMsgMeta(sub, root, 2, cid_of(batch), count=3, value=300)
    checkpoint = Checkpoint(
        sub, cid_of("proof"), ZERO_CHECKPOINT, children=(("/root/a/b/c", cid_of("kid")),),
        cross_meta=(meta,), window=4, epoch=40,
    )
    signed = SignedCheckpoint(
        checkpoint, (sign(ALICE, checkpoint.cid.hex()), sign(BOB, checkpoint.cid.hex()))
    )
    message = Message(
        ALICE.address, BOB.address, 5, method="submit_checkpoint",
        params={"signed": signed}, nonce=9,
    )
    return {
        "crossmsg": call, "topdown": ApplyTopDown(call, 11), "bottomup": ApplyBottomUp(2, batch),
        "checkpoint": checkpoint, "signed_message": SignedMessage.create(message, ALICE),
        "batch": batch,
    }


PINNED = {
    "crossmsg": "f41c526d744279ede2a5702411d73beff54ebb0a53e9b211f804df036e117012",
    "topdown": "07608553562b0e07e0fbc76160ebcf96f19d3ef1af27ba2ef6af405472abe8d0",
    "bottomup": "f5a01b246167e72781e2d171fa97d5407c7031bdd9bef2b0e1f24e4a80b5f452",
    "checkpoint": "15284fcd74b48a5f6be961ba9a0267fb584b7f498df1ac32b21f8c172a304f5e",
    "signed_message": "9794828d0c1c4ba4e9eedd3e21161b292683e3d7ebfcfbbffe4fb3841f26c5e7",
}
PINNED_BATCH = "4d570dbdc202cd5444fa67c02fb50ef8a10cbb5ef3144256df5663abfb53a23f"
PINNED_STATE_ROOT = "55d384d02c370b468890204f6dda5bff9a2c0fc095f38ed1f64b35200d690296"


def test_pinned_cids_of_fixed_values():
    values = _fixed_values()
    for _pass in ("cold", "warm"):
        for name, expected in PINNED.items():
            assert values[name].cid.hex() == expected, name
        assert batch_cid(values["batch"]).hex() == PINNED_BATCH
        tree = StateTree()
        tree.set("registry/x", values["batch"])
        tree.set("ckpt/4", values["checkpoint"])
        tree.set("queue", [values["crossmsg"], {"m": values["crossmsg"]}])
        assert tree.root().hex() == PINNED_STATE_ROOT


# ----------------------------------------------------------------------
# (iv) replace starts cold; copies keep the CID
# ----------------------------------------------------------------------
def test_replace_is_cold_and_copies_keep_the_cid():
    message = _fixed_values()["crossmsg"]
    cid = message.cid
    assert message._cid is cid and message._body is not None

    changed = dataclasses.replace(message, value=message.value + 1)
    assert changed._cid is None and changed._body is None
    assert changed.cid != cid
    assert changed.cid.digest == hashlib.sha256(ref_encode(changed)).digest()
    with pytest.raises(ValueError):
        dataclasses.replace(message, _cid=changed.cid)  # a memo is not an argument

    for clone in (copy.copy(message), copy.deepcopy(message), pickle.loads(pickle.dumps(message))):
        assert clone == message and clone is not message
        assert clone.cid == cid
        assert canonical_encode(clone) == ref_encode(message)
    signed = _fixed_values()["signed_message"]
    assert pickle.loads(pickle.dumps(signed)).cid == signed.cid
    assert copy.deepcopy(signed).cid.hex() == PINNED["signed_message"]


def _one_of_each_per_op_value():
    values = _fixed_values()
    signed, checkpoint = values["signed_message"], values["checkpoint"]
    header = BlockHeader(
        "/root", 1, ZERO_CHECKPOINT, ZERO_CHECKPOINT,
        FullBlock.compute_messages_root((signed,), ()), 1.0, ALICE.address,
    )
    return [
        signed.message, signed, signed.signature, Receipt(ExitCode.OK, gas_used=3),
        PubsubEnvelope("topic", ("block", 1), "p0", "p0:0", 0.5), header,
        FullBlock(header, (signed,)), Vote(1, 0, "prevote", header.cid, "v0"),
        TraceRecord(1.0, "block.commit", "/root", ("h=1",)), values["crossmsg"],
        values["topdown"], values["bottomup"], checkpoint.cross_meta[0], checkpoint,
        SignedCheckpoint(checkpoint, (signed.signature,)),
    ]


@pytest.mark.parametrize("value", _one_of_each_per_op_value(), ids=lambda v: type(v).__name__)
def test_per_op_values_are_slotted_frozen_and_still_copy(value):
    """What a run makes per operation carries no attribute dict — and gives
    up nothing a frozen dataclass offered for it."""
    assert not hasattr(value, "__dict__") and not hasattr(value, "__weakref__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(value)[0].name, None)
    with pytest.raises((AttributeError, TypeError)):  # TypeError: CPython 3.11's frozen + slots
        value.annotation = 1
    memos = [f.name for f in dataclasses.fields(value) if not f.init]
    assert set(memos) <= set(MEMO_NAMES)
    if "_cid" in memos:
        assert value.cid is value._cid  # cached_cid's object.__setattr__ reaches the slot
    replaced = dataclasses.replace(value)
    assert replaced == value and replaced is not value
    assert all(getattr(replaced, name) is None for name in memos)
    for clone in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and clone is not value


def test_memos_are_invisible_to_eq_hash_and_repr():
    cold, warm = _fixed_values()["batch"][0], _fixed_values()["batch"][0]
    warm.cid
    assert cold == warm and hash(cold) == hash(warm)
    assert repr(cold) == repr(warm) and "_cid" not in repr(warm) and "_body" not in repr(warm)


# ----------------------------------------------------------------------
# (vi) Only the encoder's own fragments are appended verbatim
# ----------------------------------------------------------------------
class _Tagged(bytes):
    """A bytes subclass from outside the encoder, shaped like encoded data."""


def test_bytes_subclass_in_params_keeps_its_header():
    payload = b"l0:"
    for carrier in (
        lambda params: CrossMsg(SUBNETS[1], ALICE.address, SUBNETS[0], BOB.address, 1, params=params),
        lambda params: Message(ALICE.address, BOB.address, 1, params=params),
    ):
        tagged, plain_bytes = carrier(_Tagged(payload)), carrier(payload)
        assert canonical_encode(tagged) == canonical_encode(plain_bytes) == ref_encode(plain_bytes)
        assert b"b3:l0:" in canonical_encode(tagged)
    assert canonical_encode(_Tagged(payload)) == b"b3:l0:"
    body = _fixed_values()["crossmsg"]
    body.cid
    assert canonical_encode(bytes(body._body)) != canonical_encode(body._body)  # exact type only


def test_fragment_type_is_not_exported():
    import repro.crypto

    assert not any("ragment" in name for name in dir(repro.crypto))


# ----------------------------------------------------------------------
# (vii) Memos live in the instance's own slots: no attribute dict appears
# ----------------------------------------------------------------------
def test_memos_never_materialise_an_instance_dict():
    # Enough earlier instances that the class's shared keys are settled:
    # a memo that was not set at construction would grow a dict below.
    crowd = [Message(ALICE.address, BOB.address, n) for n in range(64)]
    crowd += [CrossMsg(SUBNETS[1], ALICE.address, SUBNETS[0], BOB.address, n) for n in range(64)]
    message = Message(ALICE.address, BOB.address, 5, nonce=1)
    signed = SignedMessage.create(message, ALICE)
    cross = CrossMsg(SUBNETS[1], ALICE.address, SUBNETS[0], BOB.address, 5)
    payload = ApplyTopDown(cross, 0)
    header = BlockHeader(
        "/root", 1, ZERO_CHECKPOINT, ZERO_CHECKPOINT,
        FullBlock.compute_messages_root((signed,), (payload,)), 1.0, ALICE.address,
    )
    block = FullBlock(header, (signed,), (payload,))

    assert message_digest(message) == message.cid.digest
    assert signed.verify_signature() and signed.verify_signature()
    assert block.messages_root_matches() and block.messages_root_matches()
    for value in (message, signed, cross, payload, header, block):
        value.cid
        assert value.cid is value.cid
    assert signed._sig_ok is True and block._mr_ok is True and message._msg_digest is not None
    for value in (message, signed, cross, payload, block):
        assert not any(type(referent) is dict for referent in gc.get_referents(value)), value
    # A header's consensus_data is a dict by design; its attribute dict would hold the fields.
    assert not any(
        type(referent) is dict and "height" in referent for referent in gc.get_referents(header)
    )
    assert crowd


# ----------------------------------------------------------------------
# Mappings whose keys collide once stringified have no canonical encoding
# ----------------------------------------------------------------------
def test_colliding_stringified_keys_are_rejected_in_either_order():
    assert {1: "a", "1": "b"} == {"1": "b", 1: "a"}
    for mapping in ({1: "a", "1": "b"}, {"1": "b", 1: "a"}, {"k": {1.5: 0, "1.5": 0}}):
        with pytest.raises(EncodingError):
            canonical_encode(mapping)


class _Shouty:
    """Two distinct, unequal keys with one key text."""

    def __str__(self):
        return "same"


def test_two_non_string_keys_with_one_text_are_rejected():
    with pytest.raises(EncodingError):
        canonical_encode({_Shouty(): 1, _Shouty(): 2})


def test_string_and_mixed_keyed_dicts_encode_as_before():
    assert canonical_encode({"b": 1, "a": 2}) == b"d2:s1:ai1:2s1:bi1:1"
    assert canonical_encode({2: "x", "10": "y", 1: "z"}) == b"d3:s1:1s1:zs2:10s1:ys1:2s1:x"
    assert canonical_encode({True: 0, None: 1}) == b"d2:s4:Nonei1:1s4:Truei1:0"


@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
def test_all_string_keyed_dicts_match_the_reference(mapping):
    assert canonical_encode(mapping) == ref_encode(mapping)
