"""Unit tests for metrics."""

import gc
import json
import math
import random
import sys
from array import array
from collections import Counter as Tally

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import metrics
from repro.sim.metrics import (
    BUFFER_SIZE, EPSILON, Counter, Gauge, Histogram, MetricsRegistry,
)


def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_metrics_say_what_they_hold():
    counter, gauge, histogram = Counter("c"), Gauge("g"), _filled([1.0, 2.0])
    counter.inc(2)
    gauge.set(1.5)
    assert [repr(counter), repr(gauge), repr(histogram)] == [
        "Counter(c=2)", "Gauge(g=1.5)", f"Histogram({histogram.name}, n=2, mean=1.5000)",
    ]


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("c").inc(-1)


def test_gauge_set_and_add():
    gauge = Gauge("g")
    gauge.set(10.0)
    gauge.add(-3.0)
    assert gauge.value == 7.0


def test_histogram_summary_statistics():
    histogram = _filled(range(1, 101))
    assert histogram.count == 100
    assert histogram.mean() == pytest.approx(50.5)
    assert histogram.percentile(50) == pytest.approx(50.5)
    assert histogram.min() == 1
    assert histogram.max() == 100


def test_histogram_percentile_interpolates():
    histogram = _filled([0.0, 10.0])
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
    histogram = _filled([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
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

    histogram = _filled([1.0, 2.0, 3.0])
    summary = histogram.summary()
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["p50"] == pytest.approx(2.0)
    json.dumps(summary, allow_nan=False)


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


def _filled(values):
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    return histogram


@given(st.one_of(FLOATS, INTS), st.floats(0, 100))
def test_histogram_reads_like_a_list_of_its_observations(values, q):
    """Same values of the same types, NaN and infinities included: an
    all-int histogram still summarises and exports as ints."""
    histogram, reference = _filled(values), ListHistogram(values)
    assert repr(histogram.summary()) == repr(reference.summary())
    assert repr(histogram.percentile(q)) == repr(reference.percentile(q))
    assert repr(histogram.total) == repr(sum(values)) and histogram.count == len(values)
    json.dumps(histogram.summary(), allow_nan=False)


@given(MIXED, st.one_of(FLOATS, st.lists(EXACT_INTS, max_size=40)), st.floats(0, 100))
def test_histogram_mixed_observations_keep_every_value(values, more, q):
    """Ints read back as floats of equal value once a float has been seen."""
    histogram = _filled(values + more)
    observed = values + more
    if any(type(value) is float for value in observed):  # so the sums round alike
        observed = [float(value) for value in observed]
    reference = ListHistogram(observed)
    summary, expected = histogram.summary(), reference.summary()
    assert summary == expected or repr(summary) == repr(expected)  # NaN != NaN
    got, want = histogram.percentile(q), reference.percentile(q)
    assert got == want or (math.isnan(got) and math.isnan(want))
    if all(type(value) is int for value in values + more):
        assert repr(summary) == repr(expected)  # ints summarise as ints


def test_histogram_takes_an_int_past_63_bits_as_a_float():
    histogram = _filled([1, 2**70, 3])
    assert repr((histogram.min(), histogram.max())) == repr((1.0, float(2**70)))
    assert histogram.total == 1.0 + float(2**70) + 3.0


DRAWS = {
    "uniform": lambda rng: rng.uniform(0.02, 0.04),
    "lognormal": lambda rng: rng.lognormvariate(-3.0, 1.5),
    "int": lambda rng: rng.randrange(0, 40),
}


@pytest.mark.parametrize("shape", sorted(DRAWS))
def test_histogram_past_its_buffer_is_within_epsilon(shape):
    """Past BUFFER_SIZE: count, min, max and total exact, every quantile
    within EPSILON of the order statistics interpolated (ints: equal), and
    stdev within EPSILON of the quadratic mean."""
    rng = random.Random(7)
    values = [DRAWS[shape](rng) for _ in range(3 * BUFFER_SIZE + 123)]
    histogram = _filled(values)
    reference = ListHistogram(values)
    assert histogram.count == len(values)
    assert (histogram.min(), histogram.max()) == (min(values), max(values))
    # One left-to-right sum per fold: equal to the whole list's where sum()
    # adds plainly, within an ulp where it compensates (CPython 3.12+).
    assert histogram.total == pytest.approx(sum(values), rel=1e-12)
    tolerance = 0 if shape == "int" else EPSILON * (1 + 1e-9)
    for q in [0, 0.5, 1, 5, 25, 50, 75, 90, 95, 99, 99.9, 100] + [rng.uniform(0, 100) for _ in range(20)]:
        got, want = histogram.percentile(q), reference.percentile(q)
        assert abs(got - want) <= tolerance * abs(want), (q, got, want)
    rms = math.sqrt(sum(x * x for x in values) / (len(values) - 1))
    assert abs(histogram.stdev() - reference.summary()["stdev"]) <= EPSILON * rms
    summary = histogram.summary()
    assert summary["mean"] == pytest.approx(sum(values) / len(values), rel=1e-12)
    if shape == "int":
        assert type(summary["p50"]) is type(reference.summary()["p50"])


def test_histogram_is_exact_through_its_buffer_and_folds_one_later():
    rng = random.Random(11)
    values = [rng.expovariate(30.0) for _ in range(BUFFER_SIZE + 1)]
    histogram = _filled(values[:BUFFER_SIZE])
    assert repr(histogram.summary()) == repr(ListHistogram(values[:BUFFER_SIZE]).summary())
    histogram.observe(values[-1])
    assert len(histogram._buffer) == 0  # folded
    assert histogram.count == len(values) and histogram.max() == max(values)


def test_histogram_past_its_buffer_keeps_infinities_and_nan():
    histogram = _filled([1.0] * BUFFER_SIZE + [math.inf, -math.inf, 2.0])
    assert (histogram.min(), histogram.max()) == (-math.inf, math.inf)
    assert histogram.percentile(0) == -math.inf and histogram.percentile(100) == math.inf
    assert abs(histogram.percentile(50) - 1.0) <= EPSILON
    assert math.isnan(histogram.mean())  # inf - inf
    histogram.observe(math.nan)
    assert math.isnan(histogram.percentile(50))
    json.dumps(histogram.summary(), allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32),
    st.floats(1e-300, 1e300),
    st.sampled_from([None, 0.0, -1.0, 0.99, 4.5, math.inf, 5e-324, 1e300]),
)
def test_histogram_counts_a_fold_the_same_whichever_way_it_counts_it(seed, base, outlier):
    """Four folds of values within a narrow range, the third perhaps with
    an *outlier* (scaled by *base* where finite and nonzero) far outside
    it, count the table and the extremes that the values give."""
    rng = random.Random(seed)
    values = [base * rng.uniform(1, 3) for _ in range(4 * BUFFER_SIZE)]
    if outlier is not None:  # into the third fold
        third = range(2 * BUFFER_SIZE + 2, 3 * BUFFER_SIZE + 3)
        at = rng.choice([third[0], third[-1], rng.choice(third)])
        scale = base if math.isfinite(outlier) and abs(outlier) not in (0, 5e-324, 1e300) else 1
        values[at] = outlier * scale
    histogram = _filled(values)
    keys = Tally(metrics._bucket_keys(array("d", values)))
    assert histogram._table() == sorted((metrics._key_value(k), n) for k, n in keys.items())
    assert (histogram.min(), histogram.max()) == (min(values), max(values))


def held_bytes(root) -> int:
    """``sys.getsizeof`` summed over *root* and everything it reaches."""
    seen, todo, size = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            size += sys.getsizeof(obj)
            todo.extend(gc.get_referents(obj))
    return size


def test_histogram_holds_the_same_after_a_million_observations_as_after_ten_thousand():
    """The bucket table grows with the range of values, not their number."""
    draws = random.Random(5)
    histogram = Histogram("checkpoint.lag")
    held = []
    # Each total is a whole number of folds: the buffer has just emptied.
    for total in (3 * (BUFFER_SIZE + 1), 245 * (BUFFER_SIZE + 1)):
        while histogram.count < total:
            histogram.observe(draws.uniform(0.020, 0.021))
        held.append(held_bytes(histogram))
    assert held[0] == held[1] < 8 * 10_000


def test_registry_reuses_instances():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("b") is registry.histogram("b")
    assert registry.gauge("c") is registry.gauge("c")


def test_registry_substitutes_parts_for_stars_in_order():
    registry = MetricsRegistry()
    assert registry.counter("a.*.b", "x") is registry.counter("a.x.b")
    assert registry.histogram("hop.L*", 2) is registry.histogram("hop.L2")  # partial segment
    assert registry.gauge("d.*.e.*", "x", "y") is registry.gauge("d.x.e.y")
    assert registry.gauge("d.*.e.*", "*", "y").name == "d.*.e.y"  # a part is never re-read
    assert registry.counter("s.*", 3.5) is registry.counter("s.3.5")  # str() of the part
    assert set(registry.counters) == {"a.x.b", "s.3.5"}


@pytest.mark.parametrize(
    "family, parts", [("a.*.b", ()), ("a.*.b", ("x", "y")), ("a.b", ("x",)), ("*.*", ("x",))]
)
def test_registry_refuses_a_part_count_that_differs_from_the_star_count(family, parts):
    registry = MetricsRegistry()
    for accessor in (registry.counter, registry.gauge, registry.histogram):
        with pytest.raises(ValueError, match="part"):
            accessor(family, *parts)
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1.0)
    registry.histogram("h").observe(1.0)
    registry.counter("a").inc(2)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a": 2, "c": 1}
    assert list(snapshot["counters"]) == ["a", "c"]  # sorted by name
    assert snapshot["gauges"] == {"g": 1.0}
    assert snapshot["histograms"]["h"]["count"] == 1
    assert list(snapshot) == ["counters", "gauges", "histograms"]


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
