"""Lightweight metrics for simulation runs.

The bench harness reads these to produce the tables in ``EXPERIMENTS.md``.
All metrics are plain Python (no numpy dependency in the core library) and
deterministic given a deterministic run.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Iterable, Optional


def _json_safe(value: float) -> Optional[float]:
    """NaN/inf → None so metric exports stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move up and down."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Stores raw observations; computes summary statistics on demand.

    Simulation runs are small enough (≤ millions of samples) that keeping raw
    values is simpler and more accurate than bucketing — but a run makes one
    ``net.latency`` observation per link copy, so they are kept unboxed:
    ``samples`` is an ``array`` of C int64s while every observation has been
    an ``int`` (round counts, reorg depths: they summarise as ints) and of C
    doubles from the first float on (ints already held, and any that follow,
    are then read back as floats of equal value).  Eight bytes per sample and
    nothing for the garbage collector to walk.  Iterate it, ``len`` it,
    ``list`` it; rebound on promotion, so do not hold on to it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples = array("q")

    def observe(self, value: float) -> None:
        try:
            self.samples.append(value)
        except (TypeError, OverflowError):  # first float (or an int past 63 bits)
            self.samples = array("d", self.samples)
            self.samples.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        if self.samples.typecode == "d":
            self.samples.extend(values)
        else:  # a failed extend would keep what came before the float
            for value in values:
                self.observe(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return self.total / len(self.samples)

    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        """Return the q-th percentile (0 <= q <= 100), linear interpolation."""
        return self._percentiles(q)[0]

    def _percentiles(self, *qs: float) -> list:
        """Every one of *qs* from one sort; the boxed, sorted copy (four
        times the samples' own size) lives no longer than this call."""
        if not self.samples:
            return [math.nan] * len(qs)
        ordered = sorted(self.samples)
        found = []
        for q in qs:
            if not 0 <= q <= 100:
                raise ValueError("percentile must be in [0, 100]")
            rank = (q / 100) * (len(ordered) - 1)
            low = int(math.floor(rank))
            high = int(math.ceil(rank))
            if low == high:
                found.append(ordered[low])
            else:
                frac = rank - low
                found.append(ordered[low] * (1 - frac) + ordered[high] * frac)
        return found

    def min(self) -> float:
        return min(self.samples) if self.samples else math.nan

    def max(self) -> float:
        return max(self.samples) if self.samples else math.nan

    def merge(self, *others: "Histogram") -> "Histogram":
        """Fold the samples of *others* into this histogram (in place).

        Used to combine per-node histograms into one system-wide
        distribution before summarising; returns ``self`` for chaining.
        """
        for other in others:
            # An iterator, because ``array.extend`` refuses an array of the
            # other typecode outright instead of converting its items.
            self.observe_many(iter(other.samples))
        return self

    def summary(self) -> dict:
        """Return a dict of the usual summary statistics.

        Undefined statistics (empty histogram, or NaN observations) export
        as ``None`` rather than NaN so the dict is JSON-serialisable —
        ``json.dumps`` renders NaN as the invalid token ``NaN``.
        """
        p50, p95, p99 = self._percentiles(50, 95, 99)
        return {
            "count": self.count,
            "mean": _json_safe(self.mean()),
            "stdev": _json_safe(self.stdev()) if self.count else None,
            "p50": _json_safe(p50),
            "p95": _json_safe(p95),
            "p99": _json_safe(p99),
            "min": _json_safe(self.min()),
            "max": _json_safe(self.max()),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean():.4f})"


class TimeSeries:
    """(time, value) observations, e.g. throughput over a run: two columns,
    each kept unboxed the way :class:`Histogram` keeps its samples."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times = Histogram(name)
        self._values = Histogram(name)

    def record(self, time: float, value: float) -> None:
        self._times.observe(time)
        self._values.observe(value)

    @property
    def points(self) -> list[tuple[float, float]]:
        """The observations as a fresh list of pairs, in recording order."""
        return list(zip(self._times.samples, self._values.samples))

    def values(self) -> list[float]:
        return list(self._values.samples)

    def times(self) -> list[float]:
        return list(self._times.samples)

    def rate(self, window: Optional[tuple[float, float]] = None) -> Optional[float]:
        """Events per second: count of points over the covered interval.

        Degenerate inputs return ``None`` (JSON null) rather than a fake
        0.0, NaN or a ZeroDivisionError — matching ``Histogram.summary()``:
        an empty series, fewer than two points without an explicit window,
        or a window of non-positive span have no defined rate.  A genuine
        zero (a positive-span window covering no points of a non-empty
        series) still reads 0.0.
        """
        times = self._times.samples
        if not times:
            return None
        if window is not None:
            lo, hi = window
            count = sum(1 for t in times if lo <= t <= hi)
            span = hi - lo
        else:
            if len(times) < 2:
                return None
            count, span = len(times), times[-1] - times[0]
        if span <= 0:
            return None
        return count / span


def _expand(family: str, parts: tuple) -> str:
    """*family* with its ``*``s replaced, in order, by ``str()`` of *parts*."""
    pieces = family.split("*")
    if len(pieces) != len(parts) + 1:
        raise ValueError(
            f"metric family {family!r} has {len(pieces) - 1} '*' "
            f"but {len(parts)} part(s) were given"
        )
    return pieces[0] + "".join(f"{part}{piece}" for part, piece in zip(parts, pieces[1:]))


class MetricsRegistry:
    """Namespace of metrics owned by a :class:`~repro.sim.scheduler.Simulator`.

    The accessors take a metric *family*, spelled exactly as its key in
    ``repro.telemetry.export.METRIC_CATALOG``, and one positional part per
    ``*`` in it: ``counter("chain.*.reorgs", subnet)`` is the counter named
    ``chain.<subnet>.reorgs``.  A full name (no ``*``, no parts) is its own
    family.  A ``*`` count that differs from the part count is a
    ``ValueError``.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, TimeSeries] = {}
        self._names: dict[tuple, str] = {}  # (family, parts) -> expanded name

    @property
    def now(self) -> float:
        return self._clock()

    def _name(self, family: str, parts: tuple) -> str:
        """The name of *family* with *parts*, expanded once per registry: a
        plane names the same few metrics on every event it sees.  A part is
        looked up (by equality) before it is printed, so equal parts must
        print alike — ``1`` and ``1.0`` under one family would not."""
        try:
            return self._names[family, parts]
        except KeyError:
            name = self._names[family, parts] = _expand(family, parts)
            return name

    def counter(self, family: str, *parts) -> Counter:
        name = self._name(family, parts) if parts or "*" in family else family
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, family: str, *parts) -> Gauge:
        name = self._name(family, parts) if parts or "*" in family else family
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, family: str, *parts) -> Histogram:
        name = self._name(family, parts) if parts or "*" in family else family
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def timeseries(self, family: str, *parts) -> TimeSeries:
        name = self._name(family, parts) if parts or "*" in family else family
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    def mark(self, name: str, value: float = 1.0) -> None:
        """Record a timestamped point on the named time series."""
        self.timeseries(name).record(self.now, value)

    def snapshot(self) -> dict:
        """Return all metric values as plain JSON-safe data.

        Gauge values pass through :func:`_json_safe` so a NaN/inf gauge
        becomes null instead of poisoning ``json.dumps`` consumers —
        histograms already get this via ``Histogram.summary()``.
        """
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: _json_safe(g.value) for n, g in self.gauges.items()},
            "histograms": {n: h.summary() for n, h in self.histograms.items()},
            "series": {n: len(s.points) for n, s in self.series.items()},
        }
