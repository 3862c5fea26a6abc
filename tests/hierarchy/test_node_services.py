"""Focused tests for the node-side services: cross-msg pool, resolution
service and checkpoint service, exercised through a small live system."""

import pytest

from repro.crypto.cid import cid_of
from repro.hierarchy import (
    ROOTNET,
    CrossMsg,
    HierarchicalSystem,
    SubnetConfig,
    SubnetID,
)
from repro.hierarchy.gateway import sca_key
from repro.hierarchy.subnet_actor import last_committed_window


@pytest.fixture(scope="module")
def system():
    system = HierarchicalSystem(
        seed=71, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        wallet_funds={"alice": 10**9},
    ).start()
    system.spawn_subnet(
        SubnetConfig(name="svc", validators=3, block_time=0.25, checkpoint_period=5)
    )
    return system


SUB = SubnetID("/root/svc")


def test_crosspool_sees_parent_topdown_queue(system):
    alice = system.wallets["alice"]
    node = system.node(SUB)
    seen_before = node.crosspool._td_scanned
    system.fund_subnet(alice, SUB, alice.address, 1_000)
    system.wait_for(lambda: node.crosspool._td_scanned > seen_before, timeout=20.0)
    assert node.crosspool._td_scanned > seen_before


def test_crosspool_prunes_applied_entries(system):
    alice = system.wallets["alice"]
    node = system.node(SUB)
    system.fund_subnet(alice, SUB, alice.address, 1_000)
    balance = system.balance(SUB, alice.address)
    system.wait_for(lambda: system.balance(SUB, alice.address) > balance, timeout=20.0)
    system.run_for(2.0)
    # Applied entries are dropped from the cache.
    applied = node.vm.state.get(sca_key("td_applied_nonce"))
    assert all(nonce >= applied for nonce in node.crosspool._topdown)


def test_resolution_store_rejects_wrong_cid(system):
    node = system.node(SUB)
    messages = (
        CrossMsg(
            from_subnet=SUB, from_addr=system.wallets["alice"].address,
            to_subnet=ROOTNET, to_addr=system.wallets["alice"].address, value=1,
        ),
    )
    assert not node.resolution.store(cid_of("something else"), messages)
    assert node.resolution.store(cid_of(messages), messages)
    assert node.resolution.resolve_local(cid_of(messages)) == messages


def test_resolution_request_callback_immediate_when_local(system):
    node = system.node(SUB)
    messages = (
        CrossMsg(
            from_subnet=SUB, from_addr=system.wallets["alice"].address,
            to_subnet=ROOTNET, to_addr=system.wallets["alice"].address, value=2,
        ),
    )
    cid = cid_of(messages)
    node.resolution.store(cid, messages)
    got = []
    node.resolution.request(ROOTNET, cid, on_resolved=got.append)
    assert got == [messages]


def test_resolution_pull_roundtrip_between_subnets(system):
    """A root node pulls a batch only the subnet has."""
    subnet_node = system.node(SUB)
    root_node = system.node(ROOTNET)
    messages = (
        CrossMsg(
            from_subnet=SUB, from_addr=system.wallets["alice"].address,
            to_subnet=ROOTNET, to_addr=system.wallets["alice"].address, value=3,
        ),
    )
    cid = cid_of(messages)
    subnet_node.resolution.store(cid, messages)
    got = []
    root_node.resolution.request(SUB, cid, on_resolved=got.append)
    system.run_for(1.0)
    assert got and got[0] == messages


def test_checkpoint_service_rotates_designated_submitter(system):
    services = [n.checkpoints for n in system.nodes(SUB)]
    count = len(services)
    for window in range(count * 2):
        designated = [
            s.config.validator_index
            for s in services
            if s._is_designated_submitter(window)
        ]
        assert designated == [window % count]


def test_checkpoint_windows_seal_sequentially(system):
    system.run_for(10.0)
    node = system.node(SUB)
    sealed = node.vm.state.get(sca_key("last_window_sealed"))
    assert sealed >= 1
    for window in range(sealed + 1):
        checkpoint = node.vm.state.get(sca_key(f"ckpt/{window}"))
        assert checkpoint is not None
        assert checkpoint.window == window
    # The checkpoint chain links prev -> cid in order.
    previous = None
    for window in range(sealed + 1):
        checkpoint = node.vm.state.get(sca_key(f"ckpt/{window}"))
        if previous is not None:
            assert checkpoint.prev == previous.cid
        previous = checkpoint


def test_all_validators_derive_identical_checkpoints(system):
    system.run_for(5.0)
    nodes = system.nodes(SUB)
    sealed = min(
        n.vm.state.get(sca_key("last_window_sealed")) for n in nodes
    )
    for window in range(sealed + 1):
        cids = {
            n.vm.state.get(sca_key(f"ckpt/{window}")).cid
            for n in nodes
        }
        assert len(cids) == 1, f"window {window} diverged across validators"


def test_subnet_node_rejects_unknown_cross_payload(system):
    from repro.chain.validation import ValidationError

    node = system.node(SUB)
    with pytest.raises(ValidationError):
        node.apply_cross_message(node.vm, "garbage")


def test_checkpoint_books_keep_only_windows_the_parent_may_still_need():
    """Checkpoint books are bounded: a window's book is dropped once the
    parent holds a newer window.  30 windows on a 3-validator PoA child
    leave a validator the newest window its parent holds and the ones it
    does not yet — not one book per window ever sealed."""
    period, windows = 4, 30
    system = HierarchicalSystem(
        seed=72, root_validators=3, root_block_time=0.5, checkpoint_period=period,
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="books", validators=3, block_time=0.25, checkpoint_period=period)
    )
    node = system.node(subnet)
    system.wait_for(
        lambda: node.checkpoints._last_processed_window >= windows - 1, timeout=120.0
    )
    system.run_for(5.0)  # the parent commits the tail, the next boundary prunes
    committed = last_committed_window(
        system.node(ROOTNET).vm.state, system.sa_address(subnet)
    )
    assert committed >= windows - 2
    for validator in system.nodes(subnet):
        service = validator.checkpoints
        assert service._last_processed_window >= windows - 1
        assert len(service._books) <= 3, sorted(service._books)
        # Nothing the parent lacks was dropped, and its newest stays for
        # a late conflicting signature to become a fraud proof.
        kept = range(committed, service._last_processed_window + 1)
        assert all(window in service._books for window in kept)
