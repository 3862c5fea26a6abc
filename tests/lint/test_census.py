"""The retention census's bounded-growth gate (benchmarks/census.py): what
it counts of the metrics registry, and when it fails."""

import importlib.util
import os
import sys

from repro.sim.metrics import BUFFER_SIZE, MetricsRegistry

_BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


def _load_census():
    """``benchmarks/census.py``, loaded by path; it imports ``hotspots`` from
    its own directory and puts ``src/`` and the ledger on ``sys.path``, which
    is put back afterwards."""
    saved = list(sys.path)
    sys.path.insert(0, _BENCHMARKS)
    try:
        spec = importlib.util.spec_from_file_location(
            "census", os.path.join(_BENCHMARKS, "census.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


census = _load_census()


def test_registry_bytes_count_counters_and_gauges_too():
    registry = MetricsRegistry()
    empty = census.registry_bytes(registry)
    registry.counter("app.sent").inc()
    with_counter = census.registry_bytes(registry)
    registry.gauge("app.depth").set(3.0)
    assert empty < with_counter < census.registry_bytes(registry)


def test_registry_bytes_hold_a_histogram_at_its_bound():
    """A histogram's buffer refills and folds, so it counts at its bound
    however full it is: observing leaves the bytes where they were."""
    registry = MetricsRegistry()
    histogram = registry.histogram("app.lag")
    before = census.registry_bytes(registry)
    for value in range(BUFFER_SIZE // 2):
        histogram.observe(float(value))
    assert census.registry_bytes(registry) == before


def test_gate_fails_only_past_the_growth_limit():
    first = {"FullBlock": 100, "metrics bytes": 1_000}
    at_limit = int(1_000 * (1 + census.GROWTH))
    lines, ok = census.gate([1.0, 3.0], first, {"FullBlock": 100, "metrics bytes": at_limit})
    assert ok and not any("GREW" in line for line in lines)
    lines, ok = census.gate([1.0, 3.0], first, {"FullBlock": 100, "metrics bytes": at_limit + 1})
    assert not ok
    assert [line.split()[0] for line in lines if line.endswith("GREW")] == ["metrics"]
