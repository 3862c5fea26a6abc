"""What ``*`` means, pinned at the only two places that know: the registry
substitutes parts for it, the exporter's HELP lookup matches it."""

import pytest

from repro.sim.metrics import MetricsRegistry
from repro.telemetry.export import METRIC_CATALOG, _catalog_entry

PARTS = ("/root/a", "poa:/root/a#0", 3, "rss_bytes")


@pytest.mark.parametrize("part", PARTS)
def test_every_family_round_trips_through_registry_and_exporter(part):
    registry = MetricsRegistry()
    for family, entry in METRIC_CATALOG.items():
        parts = (part,) * family.count("*")
        name = registry.counter(family, *parts).name
        assert name == family.replace("*", str(part))
        assert _catalog_entry(name) is entry, (family, name)


def test_unknown_name_has_no_entry_and_longest_family_wins(monkeypatch):
    assert _catalog_entry("nobody.declared.this") is None
    # "xnet.hop.submit.L*" is more specific than anything shorter.
    assert _catalog_entry("xnet.hop.submit.L2") is METRIC_CATALOG["xnet.hop.submit.L*"]
    # An exact key beats a wildcard family covering it.
    entry = ("gauge", "one subnet's height")
    monkeypatch.setitem(METRIC_CATALOG, "health.s0.height", entry)
    assert _catalog_entry("health.s0.height") is entry
    assert _catalog_entry("health.s1.height") is METRIC_CATALOG["health.*.height"]
