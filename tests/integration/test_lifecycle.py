"""Integration: subnet lifecycle — leave, inactive, kill, save, claim (§III-C)."""

from repro.crypto.merkle import MerkleTree
from repro.hierarchy import (
    ROOTNET,
    HierarchicalSystem,
    SCA_ADDRESS,
    SubnetConfig,
)


def build_system(seed):
    system = HierarchicalSystem(
        seed=seed, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        wallet_funds={"alice": 1_000_000},
    ).start()
    system.spawn_subnet(
        SubnetConfig(
            name="doomed", validators=3, block_time=0.25, checkpoint_period=5,
            stake_per_validator=100, activation_collateral=250,
        )
    )
    return system


def test_leave_drops_to_inactive_and_refuses_crossnet():
    system = build_system(seed=51)
    sub = ROOTNET.child("doomed")
    val_wallets = system.validator_wallets(sub)
    sa_addr = system.sa_address(sub)

    # Two of three validators leave: collateral 300 → 100, below min 100?
    # min_collateral defaults to 100, so dropping to 100 stays active;
    # a third leave pushes to 0 → inactive.
    for wallet in val_wallets[:2]:
        wallet.send(system.node(ROOTNET), sa_addr, method="leave")
    assert system.wait_for(
        lambda: (system.child_record(ROOTNET, sub) or {}).get("collateral") == 100,
        timeout=30.0,
    )
    assert system.child_record(ROOTNET, sub)["status"] == "active"
    val_wallets[2].send(system.node(ROOTNET), sa_addr, method="leave")
    assert system.wait_for(
        lambda: system.child_record(ROOTNET, sub)["status"] == "inactive",
        timeout=30.0,
    )
    # Cross-net traffic toward the inactive subnet is refused.
    alice = system.wallets["alice"]
    balance_before = system.balance(ROOTNET, alice.address)
    system.fund_subnet(alice, sub, alice.address, 1_000)
    system.run_for(5.0)
    assert system.child_record(ROOTNET, sub)["circulating"] == 0
    # Alice keeps her funds (the fund call aborted).
    assert system.balance(ROOTNET, alice.address) == balance_before


def test_leaver_gets_stake_back():
    system = build_system(seed=53)
    sub = ROOTNET.child("doomed")
    wallet = system.validator_wallets(sub)[0]
    before = system.balance(ROOTNET, wallet.address)
    wallet.send(system.node(ROOTNET), system.sa_address(sub), method="leave")
    assert system.wait_for(
        lambda: system.balance(ROOTNET, wallet.address) == before + 100, timeout=30.0
    )


def test_kill_and_claim_saved_funds():
    system = build_system(seed=55)
    sub = ROOTNET.child("doomed")
    alice = system.wallets["alice"]
    sa_addr = system.sa_address(sub)

    # Fund alice inside the subnet.
    system.fund_subnet(alice, sub, alice.address, 7_500)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 7_500, timeout=30.0)

    # Any participant persists the state: a balances merkle snapshot (§III-C).
    subnet_vm = system.node(sub).vm
    balances = sorted(
        (key[len("balance/"):], subnet_vm.state.get(key))
        for key in subnet_vm.state.keys("balance/")
    )
    tree = MerkleTree(balances)
    epoch = system.node(sub).head().height
    alice_index = [i for i, (addr, _) in enumerate(balances) if addr == alice.address.raw][0]
    proof = tree.prove(alice_index)

    val_wallets = system.validator_wallets(sub)
    val_wallets[0].send(
        system.node(ROOTNET), SCA_ADDRESS, method="save_state",
        params={
            "subnet_path": sub.path, "epoch": epoch,
            "state_cid": subnet_vm.state_root(), "balances_root": tree.root,
        },
    )
    # All validators vote to kill.
    for wallet in val_wallets:
        wallet.send(system.node(ROOTNET), sa_addr, method="vote_kill")
    assert system.wait_for(
        lambda: system.child_record(ROOTNET, sub)["status"] == "killed", timeout=30.0
    )

    # Alice proves her balance under the saved snapshot and recovers funds.
    root_balance_before = system.balance(ROOTNET, alice.address)
    alice.send(
        system.node(ROOTNET), SCA_ADDRESS, method="claim_saved_funds",
        params={"subnet_path": sub.path, "balance": 7_500, "proof": proof},
    )
    assert system.wait_for(
        lambda: system.balance(ROOTNET, alice.address) == root_balance_before + 7_500,
        timeout=30.0,
    )
    # Double claims are rejected.
    alice.send(
        system.node(ROOTNET), SCA_ADDRESS, method="claim_saved_funds",
        params={"subnet_path": sub.path, "balance": 7_500, "proof": proof},
    )
    system.run_for(5.0)
    assert system.balance(ROOTNET, alice.address) == root_balance_before + 7_500


def test_claim_with_forged_balance_fails():
    system = build_system(seed=57)
    sub = ROOTNET.child("doomed")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 2_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 2_000, timeout=30.0)

    subnet_vm = system.node(sub).vm
    balances = sorted(
        (key[len("balance/"):], subnet_vm.state.get(key))
        for key in subnet_vm.state.keys("balance/")
    )
    tree = MerkleTree(balances)
    alice_index = [i for i, (addr, _) in enumerate(balances) if addr == alice.address.raw][0]
    proof = tree.prove(alice_index)

    val_wallets = system.validator_wallets(sub)
    val_wallets[0].send(
        system.node(ROOTNET), SCA_ADDRESS, method="save_state",
        params={"subnet_path": sub.path, "epoch": 1,
                "state_cid": subnet_vm.state_root(), "balances_root": tree.root},
    )
    for wallet in val_wallets:
        wallet.send(system.node(ROOTNET), sa_addr := system.sa_address(sub), method="vote_kill")
    assert system.wait_for(
        lambda: system.child_record(ROOTNET, sub)["status"] == "killed", timeout=30.0
    )
    before = system.balance(ROOTNET, alice.address)
    # Claim 10x her genuine balance with the genuine proof: must fail.
    alice.send(
        system.node(ROOTNET), SCA_ADDRESS, method="claim_saved_funds",
        params={"subnet_path": sub.path, "balance": 20_000, "proof": proof},
    )
    system.run_for(5.0)
    assert system.balance(ROOTNET, alice.address) == before
