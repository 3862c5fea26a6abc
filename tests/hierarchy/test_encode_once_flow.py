"""Encode once, along the route: a cross-msg is encoded once however many
hops re-hash it, and every hop still hashes the whole batch it was given."""

import dataclasses
from collections import Counter

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig, SubnetID
from repro.hierarchy.gateway import sca_key
from repro.hierarchy.checkpoint import Checkpoint, CrossMsgMeta, ZERO_CHECKPOINT
from repro.hierarchy.crossmsg import CrossMsg, batch_cid
from repro.vm.exitcode import ExitCode

from tests.hierarchy.test_crossmsg_flow import (  # noqa: F401  (pair is a fixture)
    ROOT,
    SUB,
    apply_bottomup,
    commit_checkpoint_via_sa,
    pair,
)


@pytest.fixture(scope="module")
def system():
    system = HierarchicalSystem(
        seed=18, root_validators=3, root_block_time=0.5, checkpoint_period=4,
        wallet_funds={"alice": 10**9},
    ).start()
    for name in ("left", "right"):
        system.spawn_subnet(
            SubnetConfig(name=name, validators=3, block_time=0.25, checkpoint_period=4)
        )
    return system


def test_a_crossmsg_is_encoded_once_along_its_whole_route(system, monkeypatch):
    """A path message: sent in /root/left, batched bottom-up (registry leaf,
    msgsCid, resolution push, apply at the rootnet), re-routed top-down
    (queue leaf, payload CID, apply in /root/right) — one ``to_canonical``
    per instance, where this walk used to cost over twenty."""
    left, right = SubnetID("/root/left"), SubnetID("/root/right")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, left, alice.address, 50_000)
    system.wait_for(lambda: system.balance(left, alice.address) >= 50_000, timeout=60.0)

    encoded = Counter()
    alive = []  # ids are only unique among live objects
    original = CrossMsg.to_canonical

    def counting(self):
        encoded[id(self)] += 1
        alive.append(self)
        return original(self)

    monkeypatch.setattr(CrossMsg, "to_canonical", counting)
    stored_before = system.sim.metrics.counter("resolution.push_stored").value
    system.cross_send(alice, left, right, alice.address, 1_234)
    system.wait_for(lambda: system.balance(right, alice.address) == 1_234, timeout=120.0)
    system.run_for(2.0)

    travelled = [m for m in alive if m.value == 1_234 and m.to_subnet == right]
    assert travelled, "the path message was never encoded at all"
    assert {encoded[id(m)] for m in alive} == {1}
    assert system.sim.metrics.counter("resolution.push_stored").value > stored_before
    # It did reach a registry leaf on the way up and a top-down queue on the way down.
    root_state = system.node(ROOTNET).vm.state
    prefix = sca_key("")
    assert any(
        m in travelled for _key, batch in root_state.items(prefix + "registry/") for m in batch
    )
    assert any(m in travelled for _key, m in root_state.items(prefix + "td_msg//root/right/"))


def _warm_batch(users, count=3):
    batch = tuple(
        CrossMsg(SUB, users["alice"].address, ROOT, users["bob"].address, 10 + n, origin_nonce=n)
        for n in range(count)
    )
    swapped = dataclasses.replace(batch[1], to_addr=users["carol"].address)
    for message in batch + (swapped,):
        assert message.cid is message.cid and message._body is not None  # warm
    return batch, (batch[0], swapped, batch[2])


def test_resolution_store_refuses_a_swapped_message_among_warm_siblings(system, users):
    node = system.node(ROOTNET)
    genuine, tampered = _warm_batch(users)
    bad = system.sim.metrics.counter("resolution.bad_content")
    before = bad.value
    assert not node.resolution.store(batch_cid(genuine), tampered)
    assert not node.resolution.store(batch_cid(genuine), genuine[:2])
    assert bad.value == before + 2
    assert node.resolution.resolve_local(batch_cid(genuine)) is None
    assert node.resolution.store(batch_cid(genuine), list(genuine))
    assert node.resolution.resolve_local(batch_cid(genuine)) == genuine
    assert bad.value == before + 2


def test_apply_bottomup_refuses_a_swapped_message_among_warm_siblings(pair, users):  # noqa: F811
    parent, _child, sa_addr = pair
    genuine, tampered = _warm_batch(users)
    meta = CrossMsgMeta(SUB, ROOT, 0, batch_cid(genuine), count=3, value=33)
    checkpoint = Checkpoint(
        source=SUB, proof=batch_cid(()), prev=ZERO_CHECKPOINT, cross_meta=(meta,), window=0, epoch=10,
    )
    assert commit_checkpoint_via_sa(parent, sa_addr, checkpoint).ok
    assert apply_bottomup(parent, 0, tampered).exit_code == ExitCode.USR_ILLEGAL_ARGUMENT
    assert apply_bottomup(parent, 0, genuine[:2]).exit_code == ExitCode.USR_ILLEGAL_ARGUMENT
    receipt = apply_bottomup(parent, 0, genuine)
    assert receipt.ok, receipt.error  # refused for lack of funds or delivered, but accepted as the batch


def test_child_still_rejects_an_invalid_new_segment():
    base = SubnetID("/root/a")
    for bad in ("", "UPPER", "sp ace", "x/y", "-lead", "/"):
        with pytest.raises(ValueError):
            base.child(bad)
    assert base.child("b-2_c").path == "/root/a/b-2_c"
    assert base.child("b").parent() == base and base.child("b").parent().path == "/root/a"
    assert SubnetID(base) == base and SubnetID(base).path == "/root/a"
