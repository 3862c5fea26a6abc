"""Unit tests for metrics."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries


def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_gauge_set_and_add():
    gauge = Gauge("g")
    gauge.set(10.0)
    gauge.add(-3.0)
    assert gauge.value == 7.0


def test_histogram_summary_statistics():
    histogram = Histogram("h")
    histogram.observe_many(range(1, 101))
    assert histogram.count == 100
    assert histogram.mean() == pytest.approx(50.5)
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.min() == 1
    assert histogram.max() == 100


def test_histogram_percentile_interpolates():
    histogram = Histogram("h")
    histogram.observe_many([0.0, 10.0])
    assert histogram.percentile(25) == pytest.approx(2.5)


def test_histogram_empty_is_nan():
    histogram = Histogram("h")
    assert math.isnan(histogram.mean())
    assert math.isnan(histogram.percentile(50))


def test_histogram_percentile_bounds():
    histogram = Histogram("h")
    histogram.observe(1.0)
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_histogram_stdev():
    histogram = Histogram("h")
    histogram.observe_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert histogram.stdev() == pytest.approx(2.138, abs=1e-3)
    single = Histogram("s")
    single.observe(1.0)
    assert single.stdev() == 0.0


def test_histogram_summary_is_json_safe_when_empty():
    import json

    summary = Histogram("h").summary()
    assert summary["count"] == 0
    for key in ("mean", "stdev", "p50", "p95", "p99", "min", "max"):
        assert summary[key] is None
    json.dumps(summary, allow_nan=False)  # must not raise


def test_histogram_summary_values_round_trip():
    import json

    histogram = Histogram("h")
    histogram.observe_many([1.0, 2.0, 3.0])
    summary = histogram.summary()
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["p50"] == pytest.approx(2.0)
    json.dumps(summary, allow_nan=False)


def test_histogram_merge_combines_samples():
    a = Histogram("a")
    a.observe_many([1.0, 2.0])
    b = Histogram("b")
    b.observe_many([3.0, 4.0])
    c = Histogram("c")
    merged = a.merge(b, c)
    assert merged is a
    assert a.count == 4
    assert a.mean() == pytest.approx(2.5)
    assert b.count == 2  # sources untouched


class ListHistogram:
    """The reference: a histogram over a plain list of whatever was observed
    (how ``Histogram`` kept its samples), one sort per statistic."""

    def __init__(self, values=()):
        self.samples = list(values)

    def percentile(self, q):
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        rank = (q / 100) * (len(ordered) - 1)
        low, high = int(math.floor(rank)), int(math.ceil(rank))
        if low == high:
            return ordered[low]
        return ordered[low] * (1 - (rank - low)) + ordered[high] * (rank - low)

    def summary(self):
        samples, n = self.samples, len(self.samples)
        mean = sum(samples) / n if n else math.nan
        stdev = math.sqrt(sum((x - mean) ** 2 for x in samples) / (n - 1)) if n > 1 else 0.0
        values = {
            "count": n, "mean": mean, "stdev": stdev if n else None,
            "p50": self.percentile(50), "p95": self.percentile(95), "p99": self.percentile(99),
            "min": min(samples) if n else math.nan, "max": max(samples) if n else math.nan,
        }
        return {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in values.items()
        }


# Finite values stay where squaring them (stdev) cannot overflow.
FLOATS = st.lists(
    st.one_of(st.floats(-1e150, 1e150), st.sampled_from([math.nan, math.inf, -math.inf])),
    max_size=40,
)
INTS = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40)
EXACT_INTS = st.integers(-(2**53), 2**53)  # what a double holds exactly
MIXED = st.lists(st.one_of(st.floats(-1e150, 1e150), EXACT_INTS), max_size=40)


def _filled(*batches):
    histogram = Histogram("h")
    for index, batch in enumerate(batches):  # both ways in
        if index % 2:
            histogram.observe_many(batch)
        else:
            for value in batch:
                histogram.observe(value)
    return histogram


@given(st.one_of(FLOATS, INTS), st.floats(0, 100))
def test_histogram_reads_like_a_list_of_its_observations(values, q):
    """Same values of the same types, NaN and infinities included: an
    all-int histogram still summarises and exports as ints."""
    histogram, reference = _filled(values[:7], values[7:]), ListHistogram(values)
    assert repr(histogram.summary()) == repr(reference.summary())
    assert repr(histogram.percentile(q)) == repr(reference.percentile(q))
    assert repr(histogram.total) == repr(sum(values)) and histogram.count == len(values)
    json.dumps(histogram.summary(), allow_nan=False)


@given(MIXED, st.one_of(FLOATS, st.lists(EXACT_INTS, max_size=40)), st.floats(0, 100))
def test_histogram_merge_and_mixed_observations_keep_every_value(values, more, q):
    """Ints read back as floats of equal value once a float has been seen."""
    merged = _filled(values).merge(_filled(more[:5]), Histogram("empty"), _filled(more[5:]))
    reference = ListHistogram(values + more)
    summary, expected = merged.summary(), reference.summary()
    assert summary == expected or repr(summary) == repr(expected)  # NaN != NaN
    got, want = merged.percentile(q), reference.percentile(q)
    assert got == want or (math.isnan(got) and math.isnan(want))
    if all(type(value) is int for value in values + more):
        assert merged.samples.typecode == "q"


def test_histogram_takes_an_int_past_63_bits_as_a_float():
    histogram = _filled([1, 2**70, 3])
    assert list(histogram.samples) == [1.0, float(2**70), 3.0]
    assert histogram.max() == 2**70


def test_histogram_keeps_eight_bytes_per_observation():
    histogram = Histogram("net.latency")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(100_000):
            histogram.observe(index * 1e-6)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert histogram.count == 100_000 and retained < 2**20


def test_timeseries_rate():
    series = TimeSeries("t")
    for t in range(11):
        series.record(float(t), 1.0)
    assert series.rate() == pytest.approx(11 / 10)
    assert series.rate(window=(0.0, 5.0)) == pytest.approx(6 / 5)


def test_timeseries_rate_degenerate():
    """Undefined rates are None (JSON null), like Histogram.summary()."""
    series = TimeSeries("t")
    assert series.rate() is None  # empty series
    assert series.rate(window=(0.0, 5.0)) is None  # still empty
    series.record(1.0, 1.0)
    assert series.rate() is None  # single point: no span
    assert series.rate(window=(3.0, 3.0)) is None  # zero-span window
    assert series.rate(window=(5.0, 2.0)) is None  # inverted window
    # A genuine zero: positive-span window covering no points.
    assert series.rate(window=(10.0, 20.0)) == 0.0


def test_registry_reuses_instances():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("b") is registry.histogram("b")
    assert registry.gauge("c") is registry.gauge("c")
    assert registry.timeseries("d") is registry.timeseries("d")


def test_registry_substitutes_parts_for_stars_in_order():
    registry = MetricsRegistry()
    assert registry.counter("a.*.b", "x") is registry.counter("a.x.b")
    assert registry.histogram("hop.L*", 2) is registry.histogram("hop.L2")  # partial segment
    assert registry.gauge("d.*.e.*", "x", "y") is registry.gauge("d.x.e.y")
    assert registry.gauge("d.*.e.*", "*", "y").name == "d.*.e.y"  # a part is never re-read
    assert registry.timeseries("s.*", 3.5) is registry.timeseries("s.3.5")  # str() of the part
    assert set(registry.counters) == {"a.x.b"}


@pytest.mark.parametrize(
    "family, parts", [("a.*.b", ()), ("a.*.b", ("x", "y")), ("a.b", ("x",)), ("*.*", ("x",))]
)
def test_registry_refuses_a_part_count_that_differs_from_the_star_count(family, parts):
    registry = MetricsRegistry()
    for accessor in (registry.counter, registry.gauge, registry.histogram, registry.timeseries):
        with pytest.raises(ValueError, match="part"):
            accessor(family, *parts)
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}, "series": {}}


def test_registry_mark_uses_clock():
    time = {"now": 0.0}
    registry = MetricsRegistry(clock=lambda: time["now"])
    registry.mark("events")
    time["now"] = 2.0
    registry.mark("events")
    assert registry.timeseries("events").times() == [0.0, 2.0]


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1.0)
    registry.histogram("h").observe(1.0)
    registry.mark("s")
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"c": 1}
    assert snapshot["gauges"] == {"g": 1.0}
    assert snapshot["histograms"]["h"]["count"] == 1
    assert snapshot["series"] == {"s": 1}


def test_registry_snapshot_is_nan_safe():
    """A NaN/inf gauge snapshots as None so json.dumps(allow_nan=False)
    never chokes on a metrics snapshot."""
    import json

    registry = MetricsRegistry()
    registry.gauge("bad").set(float("nan"))
    registry.gauge("worse").set(float("inf"))
    registry.gauge("fine").set(2.0)
    snapshot = registry.snapshot()
    assert snapshot["gauges"] == {"bad": None, "worse": None, "fine": 2.0}
    json.dumps(snapshot, allow_nan=False)  # must not raise
