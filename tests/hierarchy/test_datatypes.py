"""Unit tests for cross-msg/checkpoint datatypes and routing helpers."""

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import KeyPair
from repro.hierarchy.checkpoint import Checkpoint, CrossMsgMeta, ZERO_CHECKPOINT
from repro.hierarchy.crossmsg import (
    ApplyBottomUp,
    ApplyTopDown,
    CrossMsg,
    Direction,
    classify,
)
from repro.hierarchy.subnet_id import ROOTNET, SubnetID

A = SubnetID("/root/a")
AB = SubnetID("/root/a/b")
C = SubnetID("/root/c")
ALICE = KeyPair("dt-alice").address
BOB = KeyPair("dt-bob").address


def make_msg(src=AB, dst=ROOTNET, value=10, **kwargs):
    return CrossMsg(from_subnet=src, from_addr=ALICE,
                    to_subnet=dst, to_addr=BOB, value=value, **kwargs)


def test_classify_directions():
    assert classify(ROOTNET, A) == Direction.TOP_DOWN
    assert classify(ROOTNET, AB) == Direction.TOP_DOWN
    assert classify(A, ROOTNET) == Direction.BOTTOM_UP
    assert classify(A, C) == Direction.BOTTOM_UP  # sibling: leaves upward
    assert classify(A, A) == Direction.LOCAL


def test_crossmsg_validation():
    with pytest.raises(ValueError):
        make_msg(value=-1)
    with pytest.raises(ValueError):
        make_msg(src=A, dst=A)


def test_crossmsg_cid_is_content_addressed():
    assert make_msg().cid == make_msg().cid
    assert make_msg(value=11).cid != make_msg(value=10).cid
    assert make_msg(origin_nonce=1).cid != make_msg(origin_nonce=2).cid


def test_direction_at():
    message = make_msg(src=AB, dst=C)
    assert classify(AB, message.to_subnet) == Direction.BOTTOM_UP
    assert classify(ROOTNET, message.to_subnet) == Direction.TOP_DOWN
    assert classify(C, message.to_subnet) == Direction.LOCAL


def test_make_revert_swaps_endpoints():
    original = make_msg(src=AB, dst=ROOTNET, value=42, method="do_thing")
    revert = original.make_revert()
    assert revert.from_subnet == ROOTNET and revert.to_subnet == AB
    assert revert.from_addr == BOB and revert.to_addr == ALICE
    assert revert.value == 42
    assert revert.kind == "revert"
    assert revert.method == "send"  # reverts are plain refunds


def test_apply_wrappers_have_distinct_cids():
    message = make_msg()
    td = ApplyTopDown(message=message, nonce=0)
    bu = ApplyBottomUp(nonce=0, messages=(message,))
    assert td.cid != bu.cid
    assert ApplyTopDown(message=message, nonce=1).cid != td.cid


def test_checkpoint_cid_covers_children_and_metas():
    base = Checkpoint(source=A, proof=cid_of("p"), prev=ZERO_CHECKPOINT,
                      window=0, epoch=10)
    with_child = Checkpoint(source=A, proof=cid_of("p"), prev=ZERO_CHECKPOINT,
                            children=(("x", cid_of("c")),), window=0, epoch=10)
    assert base.cid != with_child.cid


def test_meta_cid_distinct_per_nonce():
    a = CrossMsgMeta(from_subnet=AB, to_subnet=ROOTNET, nonce=0,
                     msgs_cid=cid_of("x"), count=1, value=1)
    b = CrossMsgMeta(from_subnet=AB, to_subnet=ROOTNET, nonce=1,
                     msgs_cid=cid_of("x"), count=1, value=1)
    assert a.cid != b.cid
