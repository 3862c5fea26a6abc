"""E8 — Collateral lifecycle: slashing, inactivity, kill + save() (§III-B/C).

Three scenarios on live systems:

1. an equivocating checkpoint signer is caught by honest watchers, a fraud
   proof lands at the SA, and the SCA slashes the subnet's collateral;
2. validators leaving drop collateral under ``minCollateral``; the subnet
   turns inactive and the SCA refuses further cross-net traffic;
3. a subnet is killed with user funds inside; a ``save()`` snapshot plus a
   merkle balance proof recovers the funds on the parent.

Expected shape: slashing burns exactly the evidence-backed amount; the
inactive flip is immediate at the threshold; saved-fund claims pay out
exactly the proven balances, once.
"""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.hierarchy import ROOTNET, SCA_ADDRESS, SignaturePolicy, SubnetConfig
from repro.hierarchy import HierarchicalSystem

from common import RUN, run_once, show_table, write_bench_json

BLOCK_TIME = 0.25
PERIOD = 4


def _slashing_scenario():
    system = HierarchicalSystem(
        seed=801, root_validators=3, root_block_time=0.5, checkpoint_period=PERIOD,
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(
            name="cheat", validators=3, block_time=BLOCK_TIME,
            checkpoint_period=PERIOD, policy=SignaturePolicy(kind="single"),
            byzantine={0: {"equivocate_checkpoint"}},
        )
    )
    collateral_before = system.child_record(ROOTNET, subnet)["collateral"]
    t0 = system.sim.now
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["slashed_total"] > 0,
        timeout=90.0,
    )
    detect_time = system.sim.now - t0
    # The cheater keeps equivocating every window; accumulated slashes
    # eventually push the collateral under the minimum.
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["status"] == "inactive",
        timeout=120.0,
    )
    record = system.child_record(ROOTNET, subnet)
    return {
        "collateral_before": collateral_before,
        "slashed": record["slashed_total"],
        "status_after": record["status"],
        "detect_time": detect_time,
        "fraud_proofs": system.sim.metrics.counter(
            f"checkpoint.{subnet.path}.fraud_proofs"
        ).value,
    }


def _inactivity_scenario():
    system = HierarchicalSystem(
        seed=803, root_validators=3, root_block_time=0.5, checkpoint_period=PERIOD,
        wallet_funds={"user": 10**6},
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="shrink", validators=3, block_time=BLOCK_TIME,
                     checkpoint_period=PERIOD)
    )
    sa_addr = system.sa_address(subnet)
    for wallet in system.validator_wallets(subnet)[:2]:
        wallet.send(system.node(ROOTNET), sa_addr, method="leave")
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["collateral"] == 100, timeout=30.0
    )
    status_at_threshold = system.child_record(ROOTNET, subnet)["status"]
    system.validator_wallets(subnet)[2].send(system.node(ROOTNET), sa_addr, method="leave")
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["status"] == "inactive",
        timeout=30.0,
    )
    # Cross-net traffic toward the inactive subnet must be refused.
    user = system.wallets["user"]
    before = system.balance(ROOTNET, user.address)
    system.fund_subnet(user, subnet, user.address, 1_000)
    system.run_for(5.0)
    return {
        "status_at_threshold": status_at_threshold,
        "status_after": system.child_record(ROOTNET, subnet)["status"],
        "fund_refused": system.balance(ROOTNET, user.address) == before,
        "circulating": system.child_record(ROOTNET, subnet)["circulating"],
    }


def _save_and_claim_scenario():
    system = HierarchicalSystem(
        seed=805, root_validators=3, root_block_time=0.5, checkpoint_period=PERIOD,
        wallet_funds={"saver": 10**6},
    ).start()
    RUN.capture(system.sim)
    subnet = system.spawn_subnet(
        SubnetConfig(name="dying", validators=3, block_time=BLOCK_TIME,
                     checkpoint_period=PERIOD)
    )
    saver = system.wallets["saver"]
    system.fund_subnet(saver, subnet, saver.address, 40_000)
    system.wait_for(lambda: system.balance(subnet, saver.address) >= 40_000, timeout=30.0)

    subnet_vm = system.node(subnet).vm
    balances = sorted(
        (key[len("balance/"):], subnet_vm.state.get(key))
        for key in subnet_vm.state.keys("balance/")
    )
    tree = MerkleTree(balances)
    index = [i for i, (addr, _) in enumerate(balances) if addr == saver.address.raw][0]
    proof = tree.prove(index)

    validator_wallets = system.validator_wallets(subnet)
    validator_wallets[0].send(
        system.node(ROOTNET), SCA_ADDRESS, method="save_state",
        params={"subnet_path": subnet.path, "epoch": system.node(subnet).head().height,
                "state_cid": subnet_vm.state_root(), "balances_root": tree.root},
    )
    for wallet in validator_wallets:
        wallet.send(system.node(ROOTNET), system.sa_address(subnet), method="vote_kill")
    system.wait_for(
        lambda: system.child_record(ROOTNET, subnet)["status"] == "killed", timeout=30.0
    )
    before = system.balance(ROOTNET, saver.address)
    saver.send(
        system.node(ROOTNET), SCA_ADDRESS, method="claim_saved_funds",
        params={"subnet_path": subnet.path, "balance": 40_000, "proof": proof},
    )
    system.wait_for(
        lambda: system.balance(ROOTNET, saver.address) > before, timeout=30.0
    )
    recovered = system.balance(ROOTNET, saver.address) - before
    # A second claim must pay nothing.
    saver.send(
        system.node(ROOTNET), SCA_ADDRESS, method="claim_saved_funds",
        params={"subnet_path": subnet.path, "balance": 40_000, "proof": proof},
    )
    system.run_for(5.0)
    double_paid = system.balance(ROOTNET, saver.address) - before - recovered
    return {"recovered": recovered, "double_paid": double_paid}


@pytest.mark.benchmark(group="e8")
def test_e8_lifecycle(benchmark):
    def experiment():
        return _slashing_scenario(), _inactivity_scenario(), _save_and_claim_scenario()

    slashing, inactivity, recovery = run_once(benchmark, experiment)

    show_table(
        "E8 — collateral lifecycle (§III-B/C)",
        ["scenario", "result"],
        [
            ("equivocation detected in (s)", slashing["detect_time"]),
            ("slashed amount", slashing["slashed"]),
            ("subnet status after slash", slashing["status_after"]),
            ("status at exactly minCollateral", inactivity["status_at_threshold"]),
            ("status below minCollateral", inactivity["status_after"]),
            ("cross-net fund refused while inactive", inactivity["fund_refused"]),
            ("funds recovered from killed subnet", recovery["recovered"]),
            ("double-claim paid", recovery["double_paid"]),
        ],
    )

    write_bench_json(
        "e8_lifecycle",
        rows={"slashing": slashing, "inactivity": inactivity, "recovery": recovery},
    )
    assert slashing["slashed"] > 0
    assert slashing["fraud_proofs"] >= 1
    assert slashing["status_after"] == "inactive"  # slashed below the minimum
    assert inactivity["status_at_threshold"] == "active"
    assert inactivity["status_after"] == "inactive"
    assert inactivity["fund_refused"]
    assert inactivity["circulating"] == 0
    assert recovery["recovered"] == 40_000
    assert recovery["double_paid"] == 0
