"""Failure injection: partitions, message loss, and byzantine checkpointing
behaviours, asserting the system degrades and recovers as designed."""

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig, audit_system
from repro.hierarchy.subnet_actor import last_committed_window
from repro.telemetry import enable_telemetry


def test_subnet_recovers_from_internal_partition():
    """A minority validator partitioned away rejoins and catches up."""
    system = HierarchicalSystem(
        seed=81, root_validators=3, root_block_time=0.5, checkpoint_period=5,
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="part", validators=3, block_time=0.25, checkpoint_period=5)
    )
    system.run_for(2.0)
    transport = system.stack.transport
    isolated = system.nodes(sub)[2]
    handle = transport.partition(isolated.node_id)
    system.run_for(5.0)
    majority_height = system.node(sub).head().height
    lagging_height = isolated.head().height
    assert majority_height > lagging_height  # majority kept going
    transport.heal(handle)
    system.run_for(10.0)
    # Lazy gossip (IHAVE/IWANT) heals the gap; the node catches up.
    assert isolated.head().height >= system.node(sub).head().height - 2


def test_crossnet_traffic_survives_lossy_network():
    system = HierarchicalSystem(
        seed=83, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        loss_rate=0.10, wallet_funds={"alice": 10**6},
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="lossy", validators=3, block_time=0.25, checkpoint_period=5)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 50_000)
    assert system.wait_for(
        lambda: system.balance(sub, alice.address) >= 50_000, timeout=90.0
    )
    sink = system.create_wallet("lossy-sink")
    system.cross_send(alice, sub, ROOTNET, sink.address, 5_000)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, sink.address) == 5_000, timeout=240.0
    )
    assert audit_system(system).ok


def test_checkpointing_survives_parent_partition():
    """Cut the subnet off from the parent's gossip; checkpoints resume
    after healing (the fallback submitter retries)."""
    system = HierarchicalSystem(
        seed=85, root_validators=3, root_block_time=0.5, checkpoint_period=4,
    ).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="cut", validators=3, block_time=0.25, checkpoint_period=4)
    )
    system.run_for(5.0)
    window_before = last_committed_window(
        system.node(ROOTNET).vm.state, system.sa_address(sub)
    )
    transport = system.stack.transport
    subnet_ids = {n.node_id for n in system.nodes(sub)}
    handle = transport.partition(subnet_ids)
    system.run_for(10.0)
    transport.heal(handle)
    system.run_for(30.0)
    window_after = last_committed_window(
        system.node(ROOTNET).vm.state, system.sa_address(sub)
    )
    assert window_after > window_before, "checkpointing never recovered"


def test_withheld_checkpoint_signatures_respect_policy():
    """With threshold 2-of-3 and one signature withholder, checkpoints
    still commit; with two withholders they cannot."""
    working = HierarchicalSystem(
        seed=87, root_validators=3, root_block_time=0.5, checkpoint_period=4,
    ).start()
    sub_ok = working.spawn_subnet(
        SubnetConfig(
            name="onesilent", validators=3, block_time=0.25, checkpoint_period=4,
            byzantine={0: {"withhold_checkpoint_sig"}},
        )
    )
    assert working.wait_for(
        lambda: working.child_record(ROOTNET, sub_ok)["last_ckpt_cid"] != "00" * 32,
        timeout=60.0,
    )

    broken = HierarchicalSystem(
        seed=89, root_validators=3, root_block_time=0.5, checkpoint_period=4,
    ).start()
    sub_bad = broken.spawn_subnet(
        SubnetConfig(
            name="twosilent", validators=3, block_time=0.25, checkpoint_period=4,
            byzantine={0: {"withhold_checkpoint_sig"}, 1: {"withhold_checkpoint_sig"}},
        )
    )
    broken.run_for(30.0)
    assert broken.child_record(ROOTNET, sub_bad)["last_ckpt_cid"] == "00" * 32


def test_partition_with_monitors_keeps_supply_invariants():
    """The internal-partition scenario with live monitors on: whatever the
    engines do while the network is split, the supply and checkpoint-chain
    auditors stay silent and a full audit passes after healing."""
    system = HierarchicalSystem(
        seed=81, root_validators=3, root_block_time=0.5, checkpoint_period=5,
    ).start()
    enable_telemetry(system, monitors=True)
    sub = system.spawn_subnet(
        SubnetConfig(name="part", validators=3, block_time=0.25, checkpoint_period=5)
    )
    system.run_for(2.0)
    transport = system.stack.transport
    isolated = system.nodes(sub)[2]
    handle = transport.partition(isolated.node_id)
    system.run_for(5.0)
    assert audit_system(system).ok  # books stay sound while split
    transport.heal(handle)
    system.run_for(10.0)
    monitor = system.sim.planes["invariants"]
    # Partitions may legitimately trip liveness-adjacent auditors (e.g. a
    # quorum-less engine producing solo blocks), but never value safety.
    assert monitor.violations_for("supply") == []
    assert monitor.violations_for("checkpoint-chain") == []
    assert audit_system(system).ok


def test_audit_holds_mid_reorg_on_pow_subnet():
    """Partition a PoW subnet so both sides mine, heal, and audit while the
    minority reorgs back onto the majority chain; the reorg-depth histogram
    records the abandoned blocks."""
    system = HierarchicalSystem(
        seed=93, root_validators=3, root_block_time=0.5, checkpoint_period=5,
    ).start()
    enable_telemetry(system, monitors=True)
    sub = system.spawn_subnet(
        SubnetConfig(name="fork", validators=3, engine="pow", block_time=0.4,
                     checkpoint_period=5)
    )
    system.run_for(4.0)
    transport = system.stack.transport
    isolated = system.nodes(sub)[2]
    handle = transport.partition(isolated.node_id)
    system.run_for(4.0)
    transport.heal(handle)
    # Audit repeatedly through the healing window — mid-reorg state included.
    for _ in range(8):
        system.run_for(0.5)
        assert audit_system(system).ok
    system.run_for(8.0)
    assert audit_system(system).ok
    monitor = system.sim.planes["invariants"]
    assert monitor.violations_for("supply") == []
    assert monitor.violations_for("checkpoint-chain") == []
    reorgs = system.sim.metrics.counters.get(f"chain.{sub.path}.reorgs")
    if reorgs is not None and reorgs.value > 0:
        depth = system.sim.metrics.histograms[f"chain.{sub.path}.reorg.depth"]
        assert depth.count == reorgs.value
        assert depth.summary()["max"] >= 1


def test_deterministic_full_system_run():
    """Identical seeds produce identical traces for a full hierarchy run."""

    def run():
        system = HierarchicalSystem(
            seed=91, root_validators=3, root_block_time=0.5, checkpoint_period=5,
            wallet_funds={"alice": 10**6},
        ).start()
        sub = system.spawn_subnet(
            SubnetConfig(name="det", validators=3, block_time=0.25, checkpoint_period=5)
        )
        alice = system.wallets["alice"]
        system.fund_subnet(alice, sub, alice.address, 10_000)
        system.run_for(20.0)
        return system.sim.trace.digest()

    assert run() == run()
