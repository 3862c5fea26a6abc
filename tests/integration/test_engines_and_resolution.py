"""Integration: per-subnet consensus diversity, resolution pull path,
checkpoint equivocation slashing, and threshold-signed checkpoints."""

from repro.hierarchy import (
    ROOTNET,
    HierarchicalSystem,
    SignaturePolicy,
    SubnetConfig,
)


def test_each_subnet_runs_its_own_engine():
    """§I: 'Each subnet can run its own independent consensus algorithm.'"""
    system = HierarchicalSystem(
        seed=61, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        wallet_funds={"alice": 1_000_000},
    ).start()
    tm = system.spawn_subnet(
        SubnetConfig(name="tm", validators=4, engine="tendermint", block_time=0.5,
                     checkpoint_period=5)
    )
    mir = system.spawn_subnet(
        SubnetConfig(name="mir", validators=4, engine="mir", block_time=0.5,
                     checkpoint_period=5)
    )
    system.run_for(15.0)
    assert system.node(tm).engine.NAME == "tendermint"
    assert system.node(mir).engine.NAME == "mir"
    assert system.node(tm).head().height > 5
    # Mir produces ~4x block rate at equal block_time.
    assert system.node(mir).head().height > system.node(tm).head().height

    # Cross-net transfers work regardless of engines on either side.
    alice = system.wallets["alice"]
    system.fund_subnet(alice, tm, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(tm, alice.address) >= 10_000, timeout=60.0)
    bob = system.create_wallet("bob-x")
    system.cross_send(alice, tm, mir, bob.address, 2_500)
    assert system.wait_for(lambda: system.balance(mir, bob.address) == 2_500, timeout=240.0)


def test_pull_resolution_when_pushes_dropped():
    """§IV-C: peers that missed the push resolve via pull from the source."""
    system = HierarchicalSystem(
        seed=63, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        wallet_funds={"alice": 1_000_000},
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="droppy", validators=3, block_time=0.25, checkpoint_period=5)
    )
    # Make every ROOT node discard pushes, forcing the pull path for
    # bottom-up content arriving at the rootnet.
    for node in system.nodes(ROOTNET):
        node.resolution.cache_pushes = False
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 10_000, timeout=30.0)
    carol = system.create_wallet("carol-pull")
    system.cross_send(alice, sub, ROOTNET, carol.address, 4_000)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, carol.address) == 4_000, timeout=120.0
    ), "bottom-up transfer failed despite pull path"
    assert system.sim.metrics.counter("resolution.pull_sent").value > 0
    assert system.sim.metrics.counter("resolution.pull_served").value > 0


def test_equivocating_checkpoint_signer_gets_subnet_slashed():
    """§III-B: conflicting policy-valid checkpoints → fraud proof → slash."""
    system = HierarchicalSystem(
        seed=65, root_validators=3, root_block_time=0.5, checkpoint_period=4,
        wallet_funds={"alice": 1_000_000},
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(
            name="cheater", validators=3, block_time=0.25, checkpoint_period=4,
            policy=SignaturePolicy(kind="single"),
            byzantine={0: {"equivocate_checkpoint"}},
        )
    )
    collateral_before = system.child_record(ROOTNET, sub)["collateral"]
    system.run_for(30.0)
    record = system.child_record(ROOTNET, sub)
    assert record["slashed_total"] > 0, "equivocation was never slashed"
    assert record["collateral"] < collateral_before
    assert system.sim.metrics.counter(f"checkpoint.{sub.path}.fraud_proofs").value >= 1


def test_threshold_signed_checkpoints_commit():
    system = HierarchicalSystem(
        seed=67, root_validators=3, root_block_time=0.5, checkpoint_period=4,
        wallet_funds={"alice": 1_000_000},
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(
            name="tss", validators=4, block_time=0.25, checkpoint_period=4,
            policy=SignaturePolicy(kind="threshold", threshold=3),
        )
    )
    assert system.wait_for(
        lambda: system.child_record(ROOTNET, sub)["last_ckpt_cid"] != "00" * 32,
        timeout=60.0,
    ), "threshold-signed checkpoint never committed"
    # Cross-net still works under the threshold policy.
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 5_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 5_000, timeout=30.0)
    dave = system.create_wallet("dave-tss")
    system.cross_send(alice, sub, ROOTNET, dave.address, 1_000)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, dave.address) == 1_000, timeout=120.0
    )


def test_pow_subnet_checkpoints_after_finality():
    system = HierarchicalSystem(
        seed=69, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        wallet_funds={"alice": 1_000_000},
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(
            name="powsub", validators=3, engine="pow", block_time=0.3,
            checkpoint_period=5, finality_depth=3,
        )
    )
    assert system.wait_for(
        lambda: system.child_record(ROOTNET, sub)["last_ckpt_cid"] != "00" * 32,
        timeout=120.0,
    ), "PoW subnet never checkpointed"
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 5_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 5_000, timeout=90.0)
