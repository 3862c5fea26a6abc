"""Capstone integration: a wide, mixed-engine hierarchy under concurrent
cross-net traffic, audited end to end.

Builds Fig. 1 at its fullest: five subnets across two levels running four
different consensus engines, with simultaneous top-down, bottom-up and
path transfers plus intra-subnet payment load — then checks every supply
invariant and that every chain converged.
"""

import pytest

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig, audit_system
from repro.workloads import PaymentWorkload


@pytest.fixture(scope="module")
def world():
    system = HierarchicalSystem(
        seed=151, root_validators=3, root_block_time=0.5, checkpoint_period=6,
        wallet_funds={"whale": 10**12},
    ).start()
    # One batch, two levels: "deep" waits for its parent "poa".
    spawned = system.spawn_subnets([
        SubnetConfig(name="poa", validators=3, engine="poa",
                     block_time=0.25, checkpoint_period=6),
        SubnetConfig(name="tm", validators=4, engine="tendermint",
                     block_time=0.5, checkpoint_period=6),
        SubnetConfig(name="mir", validators=4, engine="mir",
                     block_time=0.5, checkpoint_period=6),
        SubnetConfig(name="pow", validators=3, engine="pow",
                     block_time=0.4, checkpoint_period=6, finality_depth=3),
        SubnetConfig(name="deep", parent="/root/poa", validators=3,
                     engine="poa", block_time=0.25, checkpoint_period=6),
    ])
    subnets = {subnet.name: subnet for subnet in spawned}
    return system, subnets


def test_whole_world_runs_and_audits(world):
    system, subnets = world
    whale = system.wallets["whale"]

    # Fund the whale in every subnet (multi-hop for the deep one).
    for subnet in subnets.values():
        system.provision_treasury(subnet, 10**7)
        system.fund_subnet(system.treasury, subnet, whale.address, 10**6)
    assert system.wait_for(
        lambda: all(system.balance(s, whale.address) >= 10**6 for s in subnets.values()),
        timeout=240.0,
    )

    # Concurrent cross-net traffic in every direction.
    sinks = {}
    sinks["up"] = system.create_wallet("stress-up")
    system.cross_send(whale, subnets["tm"], ROOTNET, sinks["up"].address, 11_000)
    sinks["path"] = system.create_wallet("stress-path")
    system.cross_send(whale, subnets["mir"], subnets["pow"], sinks["path"].address, 7_000)
    sinks["deep-path"] = system.create_wallet("stress-deep")
    system.cross_send(whale, subnets["deep"], subnets["tm"], sinks["deep-path"].address, 5_000)
    sinks["down"] = system.create_wallet("stress-down")
    system.cross_send(whale, ROOTNET, subnets["deep"], sinks["down"].address, 0)  # zero-value ping
    system.fund_subnet(system.treasury, subnets["poa"], sinks["down"].address, 3_000)

    # Plus background payment load on two subnets.
    load = [
        PaymentWorkload(system.sim, system.nodes(subnets["poa"]), [whale],
                        rate=10.0, rng_scope="stress-poa").start(),
        PaymentWorkload(system.sim, system.nodes(subnets["mir"]), [whale],
                        rate=10.0, rng_scope="stress-mir").start(),
    ]

    assert system.wait_for(
        lambda: system.balance(ROOTNET, sinks["up"].address) == 11_000, timeout=240.0
    ), "bottom-up transfer lost"
    assert system.wait_for(
        lambda: system.balance(subnets["pow"], sinks["path"].address) == 7_000,
        timeout=400.0,
    ), "sibling path transfer lost"
    assert system.wait_for(
        lambda: system.balance(subnets["tm"], sinks["deep-path"].address) == 5_000,
        timeout=400.0,
    ), "deep path transfer lost"
    assert system.wait_for(
        lambda: system.balance(subnets["poa"], sinks["down"].address) == 3_000,
        timeout=120.0,
    ), "top-down transfer lost"

    system.run_for(10.0)
    for workload in load:
        workload.stop()
    system.run_for(3.0)  # drain in-flight payments

    # Every chain converged across its validators.
    for subnet in list(subnets.values()) + [ROOTNET]:
        nodes = system.nodes(subnet)
        engine = nodes[0].engine
        final_lag = 2 + engine.node.head().height - engine.final_height()
        heights = [n.head().height for n in nodes]
        assert max(heights) - min(heights) <= final_lag, f"{subnet} diverged"

    # The payment load actually committed.
    assert all(w.stats.committed > 50 for w in load)

    # And the books balance everywhere.
    audit = audit_system(system)
    assert audit.ok, audit.violations


def test_world_checkpoint_chains_intact(world):
    system, subnets = world
    for subnet in subnets.values():
        parent = subnet.parent()
        record = system.child_record(parent, subnet)
        assert record["last_ckpt_cid"] != "00" * 32, f"{subnet} never checkpointed"
