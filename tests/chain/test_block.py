"""Unit tests for blocks and validation rules."""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.cid import CID, cid_of
from repro.crypto.keys import KeyPair
from repro.crypto.merkle import MerkleTree
from repro.chain.block import BlockHeader, FullBlock, HeaderOnly, ZERO_CID
from repro.chain.validation import ValidationError, validate_block_shape
from repro.hierarchy.crossmsg import ApplyTopDown, CrossMsg
from repro.hierarchy.subnet_id import SubnetID
from repro.vm.message import Message, SignedMessage
from tests.chain.test_chain_node import make_child, make_node


def make_header(height=0, parent=ZERO_CID, subnet="/root", timestamp=0.0, miner=None, **extra):
    return BlockHeader(
        subnet_id=subnet,
        height=height,
        parent=parent,
        state_root=cid_of("state"),
        messages_root=FullBlock.compute_messages_root((), ()),
        timestamp=timestamp,
        miner=miner or KeyPair("miner").address,
        consensus_data=extra,
    )


def make_signed(nonce=0, value=1):
    key = KeyPair("sender")
    message = Message(
        from_addr=key.address, to_addr=KeyPair("recipient").address,
        value=value, nonce=nonce,
    )
    return SignedMessage.create(message, key)


def test_header_cid_is_content_addressed():
    assert make_header().cid == make_header().cid
    assert make_header(height=1, parent=cid_of("p")).cid != make_header().cid


def test_genesis_detection():
    assert make_header().is_genesis
    assert not make_header(height=1, parent=cid_of("p")).is_genesis
    assert not make_header(height=0, parent=cid_of("p")).is_genesis


def test_messages_root_commits_to_payload():
    signed = make_signed()
    root_with = FullBlock.compute_messages_root((signed,), ())
    root_without = FullBlock.compute_messages_root((), ())
    assert root_with != root_without


def test_messages_root_matches_detects_tamper():
    signed = make_signed()
    header = make_header()
    block = FullBlock(header=header, messages=(signed,))
    assert not block.messages_root_matches()  # header committed to empty


def reference_messages_root(messages, cross_messages):
    """The messages root as a tree of encoded ``(tag, cid)`` tuple leaves:
    what the digest leaves must reproduce byte for byte."""
    leaves = [("msg", m.cid.to_canonical()) for m in messages]
    leaves += [("cross", m.cid.to_canonical()) for m in cross_messages]
    return CID(MerkleTree(leaves).root)


SIGNED = [make_signed(nonce=n, value=n + 1) for n in range(40)]
CROSS = [
    ApplyTopDown(
        CrossMsg(SubnetID("/root/a"), KeyPair("x").address, SubnetID("/root"),
                 KeyPair("y").address, n + 1),
        n,
    )
    for n in range(10)
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(range(len(SIGNED))), max_size=40),
    st.lists(st.sampled_from(range(len(CROSS))), max_size=10),
)
@example([], [])
@example([0], [])
@example([], [0])
@example(list(range(3)), list(range(5)))
@example(list(range(40)), list(range(9)))
def test_messages_root_equals_tuple_leaf_reference(message_picks, cross_picks):
    messages = tuple(SIGNED[i] for i in message_picks)
    cross = tuple(CROSS[i] for i in cross_picks)
    assert FullBlock.compute_messages_root(messages, cross) == reference_messages_root(
        messages, cross
    )


def _proposer_with(count):
    sim, node, user = make_node()
    for nonce in range(count):
        message = Message(from_addr=user.address, to_addr=KeyPair("rcpt").address,
                          value=nonce + 1, nonce=nonce)
        assert node.submit_message(SignedMessage.create(message, user))
    return node, make_child(node, node.head())


def test_assembled_block_is_born_matched(monkeypatch):
    _, block = _proposer_with(2)
    assert len(block.messages) == 2 and block._mr_ok is True

    def must_not_run(messages, cross_messages):
        raise AssertionError("the assembled block's root was computed again")

    monkeypatch.setattr(FullBlock, "compute_messages_root", staticmethod(must_not_run))
    assert block.messages_root_matches()


def test_replaced_block_starts_cold():
    _, block = _proposer_with(2)
    swapped = replace(block, messages=block.messages[::-1])
    assert swapped._mr_ok is None
    assert not swapped.messages_root_matches()
    assert replace(block)._mr_ok is None and replace(block).messages_root_matches()


def test_a_block_carries_its_headers_cid_and_height_wherever_it_is_made():
    header = make_header(height=3, parent=cid_of("p"))
    block = FullBlock(header)
    assert (block.cid, block.height) == (header.cid, 3)
    assert block.cid is header._cid  # read once, through the header's memo
    other = make_header(height=4, parent=block.cid)
    moved = replace(block, header=other)
    assert (moved.cid, moved.height) == (other.cid, 4)
    adopted = HeaderOnly(other)
    assert (adopted.cid, adopted.height) == (other.cid, 4)
    for clone in (copy.copy(block), pickle.loads(pickle.dumps(block))):
        assert clone == block and (clone.cid, clone.height) == (header.cid, 3)
    with pytest.raises(ValueError):
        replace(block, cid=other.cid)  # derived, not an argument
    assert repr(block) == f"FullBlock(header={header!r}, messages=(), cross_messages=())"


def test_validator_refuses_block_with_swapped_messages():
    _, block = _proposer_with(2)
    other = block.messages[0]
    impostor = SignedMessage.create(replace(other.message, value=999), KeyPair("cn-user"))
    for messages in (block.messages[::-1], (impostor,) + block.messages[1:]):
        sim, validator, _ = make_node(seed=2)
        assert not validator.receive_block(replace(block, messages=messages))
        assert sim.planes["trace"].count("block.invalid") == 1
        assert validator.head().height == 0
    sim, validator, _ = make_node(seed=2)
    assert validator.receive_block(block)  # the block as built is fine


def test_validate_genesis():
    genesis = FullBlock(header=make_header())
    validate_block_shape(genesis, None, "/root")


def test_validate_genesis_with_parent_rejected():
    genesis = FullBlock(header=make_header())
    with pytest.raises(ValidationError):
        validate_block_shape(genesis, genesis, "/root")


def test_validate_wrong_subnet():
    genesis = FullBlock(header=make_header())
    with pytest.raises(ValidationError, match="subnet"):
        validate_block_shape(genesis, None, "/root/a")


def test_validate_child_block():
    genesis = FullBlock(header=make_header())
    child = FullBlock(header=make_header(height=1, parent=genesis.cid, timestamp=1.0))
    validate_block_shape(child, genesis, "/root")


def test_validate_height_gap_rejected():
    genesis = FullBlock(header=make_header())
    skip = FullBlock(header=make_header(height=2, parent=genesis.cid, timestamp=1.0))
    with pytest.raises(ValidationError, match="height"):
        validate_block_shape(skip, genesis, "/root")


def test_validate_parent_mismatch_rejected():
    genesis = FullBlock(header=make_header())
    child = FullBlock(header=make_header(height=1, parent=cid_of("other"), timestamp=1.0))
    with pytest.raises(ValidationError):
        validate_block_shape(child, genesis, "/root")


def test_validate_timestamp_regression_rejected():
    genesis = FullBlock(header=make_header(timestamp=5.0))
    child = FullBlock(header=make_header(height=1, parent=genesis.cid, timestamp=1.0))
    with pytest.raises(ValidationError, match="timestamp"):
        validate_block_shape(child, genesis, "/root")


def test_validate_missing_parent_rejected():
    child = FullBlock(header=make_header(height=1, parent=cid_of("gone"), timestamp=1.0))
    with pytest.raises(ValidationError, match="parent"):
        validate_block_shape(child, None, "/root")


def test_validate_bad_signature_rejected():
    from dataclasses import replace

    genesis = FullBlock(header=make_header())
    signed = make_signed()
    # Tamper with the inner message after signing.
    tampered = SignedMessage(
        message=replace(signed.message, value=999), signature=signed.signature
    )
    header = BlockHeader(
        subnet_id="/root",
        height=1,
        parent=genesis.cid,
        state_root=cid_of("state"),
        messages_root=FullBlock.compute_messages_root((tampered,), ()),
        timestamp=1.0,
        miner=KeyPair("miner").address,
    )
    block = FullBlock(header=header, messages=(tampered,))
    with pytest.raises(ValidationError, match="signature"):
        validate_block_shape(block, genesis, "/root")


def test_validate_capacity():
    genesis = FullBlock(header=make_header())
    signed = make_signed()
    header = BlockHeader(
        subnet_id="/root", height=1, parent=genesis.cid,
        state_root=cid_of("s"),
        messages_root=FullBlock.compute_messages_root((signed,), ()),
        timestamp=1.0, miner=KeyPair("m").address,
    )
    block = FullBlock(header=header, messages=(signed,))
    with pytest.raises(ValidationError, match="capacity"):
        validate_block_shape(block, genesis, "/root", max_messages=0)


def test_validate_capacity_counts_user_messages_only():
    genesis = FullBlock(header=make_header())
    block = FullBlock.assemble(
        (), CROSS[:3], subnet_id="/root", height=1, parent=genesis.cid,
        state_root=cid_of("s"), timestamp=1.0, miner=KeyPair("m").address,
    )
    validate_block_shape(block, genesis, "/root", max_messages=0)
