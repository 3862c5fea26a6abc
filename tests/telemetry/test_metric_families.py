"""What ``*`` means, pinned where the catalog meets the registry: the
registry substitutes parts for it, and a run emits no name outside the
catalog's families."""

import re

import pytest

from repro import ROOTNET, HierarchicalSystem, SubnetConfig
from repro.sim.metrics import MetricsRegistry
from repro.telemetry import enable_telemetry
from repro.telemetry.export import METRIC_CATALOG

PARTS = ("/root/a", "poa:/root/a#0", 3, "rss_bytes")


@pytest.mark.parametrize("part", PARTS)
def test_every_family_round_trips_through_the_registry(part):
    registry = MetricsRegistry()
    for family in METRIC_CATALOG:
        parts = (part,) * family.count("*")
        for accessor in (registry.counter, registry.gauge, registry.histogram):
            assert accessor(family, *parts).name == family.replace("*", str(part))


def _family_of(name):
    """The catalog families whose pattern matches *name* (``*`` = one
    segment of no dots)."""
    return [
        family for family in METRIC_CATALOG
        if re.fullmatch("[^.]+".join(map(re.escape, family.split("*"))), name)
    ]


def test_a_run_emits_only_catalog_families():
    """Funds top-down, payments, a withdrawal bottom-up and every telemetry
    plane: each metric the registry then holds belongs to a family that
    names its reader."""
    system = HierarchicalSystem(
        seed=11, checkpoint_period=4, wallet_funds={"alice": 1_000_000},
    ).start()
    enable_telemetry(system, health_interval=1.0, monitors=True)
    subnet = system.spawn_subnet(SubnetConfig(
        name="fast", validators=4, engine="tendermint", block_time=0.25, checkpoint_period=4,
    ))
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 10_000)
    assert system.wait_for(lambda: system.balance(subnet, alice.address) >= 10_000)
    before = system.balance(ROOTNET, alice.address)
    system.cross_send(alice, subnet, ROOTNET, alice.address, 3_000)
    assert system.wait_for(lambda: system.balance(ROOTNET, alice.address) == before + 3_000)

    metrics = system.sim.metrics
    names = [*metrics.counters, *metrics.gauges, *metrics.histograms]
    assert any(name.startswith("xnet.e2e.") for name in names)  # the run crossed nets
    strays = [name for name in names if not _family_of(name)]
    assert strays == [], f"emitted outside METRIC_CATALOG: {strays}"
