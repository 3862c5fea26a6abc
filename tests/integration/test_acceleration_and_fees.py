"""Integration: accelerated cross-msgs (§IV-A) and miner fee economics (§II)."""

from repro.hierarchy import ROOTNET, HierarchicalSystem, SubnetConfig


def build_accelerated_system(seed=101, period=12):
    system = HierarchicalSystem(
        seed=seed, root_validators=3, root_block_time=0.5,
        checkpoint_period=period, accelerate_root=True,
        wallet_funds={"alice": 10**9},
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="quick", validators=3, block_time=0.25,
                     checkpoint_period=period, accelerate=True)
    )
    return system, subnet


def test_pending_certificate_races_the_checkpoint():
    """Tentative credit shows up well before bottom-up settlement."""
    system, subnet = build_accelerated_system()
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 100_000)
    assert system.wait_for(lambda: system.balance(subnet, alice.address) >= 100_000, timeout=30.0)

    sink = system.create_wallet("accel-sink")
    root_node = system.node(ROOTNET)
    t0 = system.sim.now
    system.cross_send(alice, subnet, ROOTNET, sink.address, 9_000)

    assert system.wait_for(
        lambda: root_node.acceleration.pending_for(sink.address) == 9_000,
        timeout=30.0,
    ), "pending certificate never reached the destination"
    pending_at = system.sim.now - t0

    assert system.wait_for(
        lambda: system.balance(ROOTNET, sink.address) == 9_000, timeout=120.0
    )
    settled_at = system.sim.now - t0
    # The certificate must beat the checkpoint-bound settlement clearly.
    assert pending_at < settled_at / 2
    # After settlement the tentative entry clears.
    system.run_for(2.0)
    assert root_node.acceleration.pending_for(sink.address) == 0
    assert system.sim.metrics.counter("accel.settled").value >= 1


def test_pending_requires_certifier_quorum():
    system, subnet = build_accelerated_system(seed=103)
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 50_000)
    assert system.wait_for(lambda: system.balance(subnet, alice.address) >= 50_000, timeout=30.0)
    sink = system.create_wallet("accel-q")
    root_node = system.node(ROOTNET)
    root_node.acceleration.quorum = 99  # unreachable quorum
    system.cross_send(alice, subnet, ROOTNET, sink.address, 1_000)
    # Check before checkpoint settlement clears the tentative entry.
    system.run_for(2.5)
    assert root_node.acceleration.pending_for(sink.address) == 0
    # Certificates arrived, they just do not meet the bar.
    details = root_node.acceleration.pending_details(sink.address)
    assert details and all(count < 99 for _, count in details)


def test_forged_certificate_rejected():
    from repro.crypto.keys import KeyPair
    from repro.crypto.signature import Signature
    from repro.hierarchy.acceleration import PendingCertificate, acceleration_topic
    from repro.hierarchy.crossmsg import CrossMsg

    system, subnet = build_accelerated_system(seed=105)
    attacker = KeyPair("accel-attacker")
    sink = system.create_wallet("accel-forged")
    message = CrossMsg(
        from_subnet=subnet, from_addr=attacker.address,
        to_subnet=ROOTNET, to_addr=sink.address, value=10**6,
    )
    forged = PendingCertificate(
        message=message, window=0, certifier=attacker.address,
        signature=Signature(signer=attacker.address, public=attacker.public,
                            tag=b"\x00" * 32),
    )
    system.gossip.publish("adversary", acceleration_topic(ROOTNET), forged)
    system.run_for(3.0)
    root_node = system.node(ROOTNET)
    assert root_node.acceleration.pending_for(sink.address) == 0
    assert system.sim.metrics.counter("accel.bad_certificates").value >= 1


def test_subnet_miners_earn_fees():
    """§II: 'Miners in subnets are rewarded with fees for the transactions
    executed in the subnet.'"""
    system = HierarchicalSystem(
        seed=107, root_validators=3, root_block_time=0.5, checkpoint_period=10,
        wallet_funds={"alice": 10**9},
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="feemarket", validators=3, block_time=0.25,
                     checkpoint_period=10, gas_price=1)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 10**8)
    assert system.wait_for(lambda: system.balance(subnet, alice.address) >= 10**8, timeout=30.0)

    bob = system.create_wallet("fee-bob")
    miner_addresses = [n.miner_address for n in system.nodes(subnet)]
    fees_before = sum(system.balance(subnet, a) for a in miner_addresses)
    for _ in range(10):
        system.transfer(alice, subnet, bob.address, 100)
    system.run_for(10.0)
    fees_after = sum(system.balance(subnet, a) for a in miner_addresses)
    assert system.balance(subnet, bob.address) == 1_000
    paid = fees_after - fees_before
    assert paid > 0, "miners earned no fees"
    # Fees equal gas used x price, deducted from the sender.
    alice_balance = system.balance(subnet, alice.address)
    assert alice_balance == 10**8 - 1_000 - paid


def test_zero_gas_price_charges_nothing():
    system = HierarchicalSystem(
        seed=109, root_validators=3, root_block_time=0.5, checkpoint_period=10,
        wallet_funds={"alice": 10**6},
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="freefees", validators=3, block_time=0.25,
                     checkpoint_period=10, gas_price=0)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(subnet, alice.address) >= 10_000, timeout=30.0)
    bob = system.create_wallet("free-bob")
    system.transfer(alice, subnet, bob.address, 100)
    system.wait_for(lambda: system.balance(subnet, bob.address) == 100, timeout=15.0)
    assert system.balance(subnet, alice.address) == 10_000 - 100
