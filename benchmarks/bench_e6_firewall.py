"""E6 — Firewall property vs traditional sharding's 1% attack (§II, §I).

Hierarchical consensus: an adversary controlling *all* of a subnet's
validators forges bottom-up checkpoints claiming escalating value.  The
parent's SCA releases at most the subnet's genuine circulating supply —
the §II bound — regardless of the claim.

Traditional sharding: the adversary only needs a *fraction* of the global
pool; random assignment occasionally hands it a shard majority (the 1%
attack), and a compromised shard's forgery is unbounded — there is no
firewall.  We report the compromise probability per reshuffle across
adversary fractions and shard counts.

Expected shape: HC extraction flatlines at the circulating supply while
the claimed value grows 10x per row; sharding's compromise probability
rises steeply with shard count and adversary fraction, with unbounded
impact once compromised.
"""

import pytest

from repro.baselines import shard_compromise_probability
from repro.crypto.keys import KeyPair
from repro.hierarchy import ROOTNET, CompromisedSubnet, audit_system

from common import build_hierarchy, run_once, show_table, write_bench_json

INJECTED = 10_000
CLAIM_MULTIPLIERS = (1, 10, 100, 1000)


def _hc_attack_rows():
    rows = []
    for index, multiplier in enumerate(CLAIM_MULTIPLIERS):
        system, (subnet,) = build_hierarchy(
            seed=600 + index, n_subnets=1, subnet_block_time=0.25,
            checkpoint_period=5,
        )
        wallet = system.create_wallet("victim-user", fund=INJECTED * 2)
        system.fund_subnet(wallet, subnet, wallet.address, INJECTED)
        system.wait_for(
            lambda: system.balance(subnet, wallet.address) >= INJECTED, timeout=60.0
        )
        supply = system.child_record(ROOTNET, subnet)["circulating"]
        attacker = KeyPair(("e6-attacker", index)).address
        adversary = CompromisedSubnet(system, subnet)
        adversary.forge_extraction(attacker, value=supply * multiplier, count=4)
        system.run_for(60.0)
        extracted = system.balance(ROOTNET, attacker)
        audit = audit_system(system)
        monitor = system.sim.planes["invariants"]
        rows.append({
            "claimed": supply * multiplier,
            "supply": supply,
            "extracted": extracted,
            "audit_ok": audit.ok,
            # The live supply auditor must notice every forged extraction.
            "violations": len(monitor.violations_for("supply")),
        })
    return rows


def _sharding_rows():
    rows = []
    for shards in (4, 16, 64):
        for fraction in (0.05, 0.15, 0.25):
            probability = shard_compromise_probability(
                pool_size=256, shards=shards, adversary_fraction=fraction,
                trials=8000,
            )
            rows.append({
                "shards": shards,
                "adversary": fraction,
                "p_compromise": probability,
            })
    return rows


@pytest.mark.benchmark(group="e6")
def test_e6_firewall_vs_sharding(benchmark):
    def experiment():
        return _hc_attack_rows(), _sharding_rows()

    hc_rows, shard_rows = run_once(benchmark, experiment)

    show_table(
        "E6a — HC compromised subnet: forged claim vs extracted value "
        f"(genuine circulating supply ≈ {INJECTED})",
        ["claimed value", "circulating supply", "extracted",
         "supply invariants hold", "live violations"],
        [
            (row["claimed"], row["supply"], row["extracted"], row["audit_ok"],
             row["violations"])
            for row in hc_rows
        ],
    )
    show_table(
        "E6b — traditional sharding: P(some shard compromised per assignment) "
        "(pool 256; compromised shard ⇒ unbounded forgery)",
        ["shards", "adversary fraction", "P(compromise)"],
        [(row["shards"], row["adversary"], row["p_compromise"]) for row in shard_rows],
    )

    write_bench_json("e6_firewall", rows={"hc": hc_rows, "sharding": shard_rows})
    # HC: extraction never exceeds the circulating supply, for any claim,
    # and the live supply monitor flags every forged extraction as it runs.
    for row in hc_rows:
        assert row["extracted"] <= row["supply"]
        assert row["audit_ok"]
        assert row["violations"] > 0, "supply monitor missed the attack"
    # The bound is tight: the attacker does drain what was genuinely there.
    assert any(row["extracted"] >= row["supply"] * 0.9 for row in hc_rows)
    # Sharding: compromise probability grows with shards and adversary size.
    by = {(r["shards"], r["adversary"]): r["p_compromise"] for r in shard_rows}
    assert by[(64, 0.25)] > by[(4, 0.25)]
    assert by[(64, 0.25)] > by[(64, 0.05)]
    assert by[(64, 0.25)] > 0.5  # the 1%-attack regime is real
