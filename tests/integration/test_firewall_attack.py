"""Integration: the §II firewall property under an actual subnet compromise."""

import pytest

from repro.crypto.keys import KeyPair
from repro.hierarchy import (
    ROOTNET,
    CompromisedSubnet,
    HierarchicalSystem,
    SubnetConfig,
    audit_system,
)
from repro.telemetry import enable_telemetry


def build_system(seed=31):
    system = HierarchicalSystem(
        seed=seed,
        root_validators=3,
        root_block_time=0.5,
        checkpoint_period=5,
        wallet_funds={"alice": 1_000_000},
    ).start()
    system.spawn_subnet(
        SubnetConfig(name="victim", validators=3, block_time=0.25, checkpoint_period=5)
    )
    return system


def test_forged_extraction_bounded_by_circulating_supply():
    system = build_system()
    sub = ROOTNET.child("victim")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 10_000, timeout=30.0)
    circulating_before = system.child_record(ROOTNET, sub)["circulating"]

    attacker = KeyPair("attacker").address
    adversary = CompromisedSubnet(system, sub)
    # The adversary claims 100x the genuine injections.
    adversary.forge_extraction(attacker, value=circulating_before * 100)
    system.run_for(60.0)

    extracted = system.balance(ROOTNET, attacker)
    # Firewall: nothing beyond the circulating supply ever leaves.
    assert extracted <= circulating_before
    audit = audit_system(system)
    assert audit.ok, audit.violations


def test_forged_extraction_gets_at_most_supply_with_split_messages():
    system = build_system(seed=37)
    sub = ROOTNET.child("victim")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 5_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 5_000, timeout=30.0)
    supply = system.child_record(ROOTNET, sub)["circulating"]

    attacker = KeyPair("attacker2").address
    adversary = CompromisedSubnet(system, sub)
    # Splitting the claim into many messages: everything under the supply
    # drains, the remainder is refused.
    adversary.forge_extraction(attacker, value=supply * 3, count=6)
    system.run_for(60.0)
    extracted = system.balance(ROOTNET, attacker)
    assert extracted <= supply
    # Refusals were recorded by the firewall.
    refused = system.sim.metrics.counters.get("crossmsg./root.bottomup_ok")
    audit = audit_system(system)
    assert audit.ok, audit.violations


def test_supply_monitor_flags_forged_extraction_with_postmortem():
    """E6's attack with live monitors: the supply auditor fires as the
    forged release hits the parent, and the flight recorder dumps a
    renderable postmortem bundle."""
    system = build_system()
    enable_telemetry(system, monitors=True)
    sub = ROOTNET.child("victim")
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(sub, alice.address) >= 10_000, timeout=30.0)
    circulating = system.child_record(ROOTNET, sub)["circulating"]

    attacker = KeyPair("attacker-mon").address
    CompromisedSubnet(system, sub).forge_extraction(attacker, value=circulating * 100)
    system.run_for(60.0)

    monitor = system.sim.planes["invariants"]
    supply_violations = monitor.violations_for("supply")
    assert supply_violations, "live supply auditor missed the forged extraction"
    assert any("circulating supply" in v.description for v in supply_violations)
    assert monitor.summary()["by_auditor"]["supply"] >= 1
    # The firewall still held — books are sound even though the alarm rang.
    assert system.balance(ROOTNET, attacker) <= circulating
    assert audit_system(system).ok

    # The violation produced a postmortem bundle that renders.
    from repro.telemetry.postmortem import render

    bundles = system.sim.planes["recorder"].bundles
    assert bundles, "violation should have dumped a bundle"
    text = render(bundles[0])
    assert "postmortem: reason=invariant-violation" in text
    assert "circulating supply" in text
    assert "/root/victim" in text


def test_honest_users_unaffected_in_other_subnets():
    system = HierarchicalSystem(
        seed=41, root_validators=3, root_block_time=0.5, checkpoint_period=5,
        wallet_funds={"alice": 1_000_000, "bob": 1_000_000},
    ).start()
    victim = system.spawn_subnet(
        SubnetConfig(name="victim", validators=3, block_time=0.25, checkpoint_period=5)
    )
    healthy = system.spawn_subnet(
        SubnetConfig(name="healthy", validators=3, block_time=0.25, checkpoint_period=5)
    )
    alice, bob = system.wallets["alice"], system.wallets["bob"]
    system.fund_subnet(alice, victim, alice.address, 2_000)
    system.fund_subnet(bob, healthy, bob.address, 50_000)
    assert system.wait_for(
        lambda: system.balance(healthy, bob.address) >= 50_000, timeout=30.0
    )

    attacker = KeyPair("attacker3").address
    CompromisedSubnet(system, victim).forge_extraction(attacker, value=10**9)
    system.run_for(40.0)

    # The healthy subnet's books and traffic are untouched.
    assert system.child_record(ROOTNET, healthy)["circulating"] >= 50_000
    carol = system.create_wallet("carol-fw")
    system.cross_send(bob, healthy, ROOTNET, carol.address, 1_234)
    assert system.wait_for(
        lambda: system.balance(ROOTNET, carol.address) == 1_234, timeout=90.0
    )
    # Attack impact bounded by the victim's circulating supply.
    assert system.balance(ROOTNET, attacker) <= 2_000
