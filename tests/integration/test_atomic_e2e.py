"""End-to-end atomic execution across sibling subnets (§IV-D, Fig. 5)."""

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SCA_ADDRESS, SubnetConfig
from repro.hierarchy.atomic import AtomicExecutionClient, AtomicParty, asset_lock, asset_owner


def build_system(seed=11):
    system = HierarchicalSystem(
        seed=seed,
        root_validators=3,
        root_block_time=0.5,
        checkpoint_period=6,
        wallet_funds={"alice": 1_000_000, "bob": 1_000_000},
    ).start()
    for name in ("x", "y"):
        system.spawn_subnet(
            SubnetConfig(name=name, validators=3, engine="poa", block_time=0.25,
                         checkpoint_period=6)
        )
    return system


@pytest.fixture(scope="module")
def swap_setup():
    system = build_system()
    alice, bob = system.wallets["alice"], system.wallets["bob"]
    sub_x, sub_y = ROOTNET.child("x"), ROOTNET.child("y")
    # Parties need gas-free presence only; assets are SCA records.
    for wallet, subnet, asset in ((alice, sub_x, "gem"), (bob, sub_y, "coin")):
        wallet.send(
            system.node(subnet), SCA_ADDRESS,
            method="create_asset", params={"name": asset},
        )
    system.wait_for(
        lambda: asset_owner(system, sub_x, "gem") == alice.address.raw
        and asset_owner(system, sub_y, "coin") == bob.address.raw,
        timeout=20.0,
    )
    return system, alice, bob, sub_x, sub_y


def test_happy_path_swap_commits(swap_setup):
    system, alice, bob, sub_x, sub_y = swap_setup
    client = AtomicExecutionClient(
        system,
        exec_id="swap-happy",
        parties=[
            AtomicParty(wallet=alice, subnet=sub_x, assets=("gem",)),
            AtomicParty(wallet=bob, subnet=sub_y, assets=("coin",)),
        ],
    )
    assert client.lca == ROOTNET  # closest common parent coordinates
    assert client.initialize(timeout=80.0)
    client.execute_offchain()
    client.submit_outputs()
    assert system.wait_for(lambda: client.status_at_lca() == "committed", timeout=80.0)
    assert client.wait_terminated(timeout=80.0)
    # Atomicity: both sides applied the swap.
    assert asset_owner(system, sub_x, "gem") == bob.address.raw
    assert asset_owner(system, sub_y, "coin") == alice.address.raw
    # Locks released.
    for subnet, asset in ((sub_x, "gem"), (sub_y, "coin")):
        assert asset_lock(system, subnet, asset) is None


def test_abort_reverts_everywhere(swap_setup):
    system, alice, bob, sub_x, sub_y = swap_setup
    for wallet, subnet, asset in ((alice, sub_x, "gem2"), (bob, sub_y, "coin2")):
        wallet.send(system.node(subnet), SCA_ADDRESS,
                    method="create_asset", params={"name": asset})
    system.run_for(3.0)
    client = AtomicExecutionClient(
        system,
        exec_id="swap-abort",
        parties=[
            AtomicParty(wallet=alice, subnet=sub_x, assets=("gem2",)),
            AtomicParty(wallet=bob, subnet=sub_y, assets=("coin2",)),
        ],
    )
    assert client.initialize(timeout=60.0)
    # Bob walks away and aborts instead of submitting.
    client.abort(party_index=1)
    assert system.wait_for(lambda: client.status_at_lca() == "aborted", timeout=30.0)
    assert client.wait_terminated(timeout=120.0)
    # Inputs unlocked, ownership unchanged — full revert.
    assert asset_owner(system, sub_x, "gem2") == alice.address.raw
    assert asset_owner(system, sub_y, "coin2") == bob.address.raw
    for subnet, asset in ((sub_x, "gem2"), (sub_y, "coin2")):
        assert asset_lock(system, subnet, asset) is None


def test_mismatching_outputs_abort(swap_setup):
    system, alice, bob, sub_x, sub_y = swap_setup
    for wallet, subnet, asset in ((alice, sub_x, "gem3"), (bob, sub_y, "coin3")):
        wallet.send(system.node(subnet), SCA_ADDRESS,
                    method="create_asset", params={"name": asset})
    system.run_for(3.0)
    client = AtomicExecutionClient(
        system,
        exec_id="swap-mismatch",
        parties=[
            AtomicParty(wallet=alice, subnet=sub_x, assets=("gem3",)),
            AtomicParty(wallet=bob, subnet=sub_y, assets=("coin3",)),
        ],
    )
    assert client.initialize(timeout=60.0)
    client.execute_offchain()
    # Bob submits a self-serving output: everything becomes his.
    dishonest = {"owners": {"gem3": bob.address.raw, "coin3": bob.address.raw}}
    client.submit_outputs(dissenting_outputs={1: dishonest})
    assert system.wait_for(lambda: client.status_at_lca() == "aborted", timeout=30.0)
    assert client.wait_terminated(timeout=120.0)
    # Unforgeability: the dishonest output never applied anywhere.
    assert asset_owner(system, sub_x, "gem3") == alice.address.raw
    assert asset_owner(system, sub_y, "coin3") == bob.address.raw
