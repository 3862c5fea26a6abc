"""Integration: cross-net messages that invoke actors (§IV-A 'arbitrary
messages'), carrying the original sender's identity into the callee."""

import pytest

from repro.crypto.keys import Address
from repro.hierarchy import ROOTNET, HierarchicalSystem, SCA_ADDRESS, SubnetConfig
from repro.hierarchy.gateway import sca_key


@pytest.fixture(scope="module")
def system():
    system = HierarchicalSystem(
        seed=141, root_validators=3, root_block_time=0.5, checkpoint_period=6,
        wallet_funds={"alice": 10**6, "bob": 10**6},
    ).start()
    system.spawn_subnet(
        SubnetConfig(name="caller", validators=3, block_time=0.25, checkpoint_period=6)
    )
    return system


def test_crossnet_asset_creation_attributed_to_sender(system):
    """Alice, operating from the subnet, creates an asset on the ROOTNET's
    SCA via a bottom-up cross-net call — and owns it there."""
    subnet = ROOTNET.child("caller")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(subnet, alice.address) >= 10_000, timeout=30.0)

    system.cross_send(
        alice, subnet, ROOTNET, SCA_ADDRESS, 0,
        method="create_asset", params={"name": "crossnet-deed"},
    )
    assert system.wait_for(
        lambda: (system.sca_state(ROOTNET, "asset/crossnet-deed") or {}).get("owner")
        is not None,
        timeout=90.0,
    )
    record = system.sca_state(ROOTNET, "asset/crossnet-deed")
    # The caller identity that reached create_asset was alice, not the SCA.
    assert record["owner"] == alice.address.raw


def test_topdown_actor_call_with_value(system):
    """A rootnet user calls the subnet's faucet-like actor cross-net with
    attached value; caller identity and value both arrive."""
    subnet = ROOTNET.child("caller")
    bob = system.wallets["bob"]
    # bob creates an asset in the subnet without ever holding subnet funds.
    system.cross_send(
        bob, ROOTNET, subnet, SCA_ADDRESS, 0,
        method="create_asset", params={"name": "topdown-deed"},
    )
    assert system.wait_for(
        lambda: (system.node(subnet).vm.state.get(
            sca_key("asset/topdown-deed")) or {}).get("owner")
        is not None,
        timeout=60.0,
    )
    record = system.node(subnet).vm.state.get(
        sca_key("asset/topdown-deed")
    )
    assert record["owner"] == bob.address.raw


def test_failed_crossnet_call_reverts_value(system):
    """A cross-net call that aborts at the destination returns its value."""
    subnet = ROOTNET.child("caller")
    alice = system.wallets["alice"]
    balance_before = system.balance(subnet, alice.address)
    assert balance_before >= 5_000
    # create_asset with a duplicate name aborts (asset exists).
    system.cross_send(
        alice, subnet, ROOTNET, SCA_ADDRESS, 3_000,
        method="create_asset", params={"name": "crossnet-deed"},
    )
    # Value leaves, delivery fails at the root, the revert brings it back.
    assert system.wait_for(
        lambda: system.balance(subnet, alice.address) == balance_before,
        timeout=180.0,
    ), "revert never restored the sender's balance"
