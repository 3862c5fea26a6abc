"""Lightweight metrics for simulation runs.

The bench harness reads these to produce the tables in ``EXPERIMENTS.md``.
All metrics are plain Python (no numpy dependency in the core library) and
deterministic given a deterministic run.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from bisect import bisect_right
from collections import Counter as _Tally
from itertools import accumulate, chain
from typing import Callable


def json_safe(value):
    """*value* as plain JSON data: NaN and ±inf become None, a mapping's keys
    strings, a tuple a list, and anything else that JSON cannot hold its
    ``repr``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return repr(value)


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


#: Observations a histogram keeps exactly, in arrival order; one more and it
#: folds them into its bucket table.
BUFFER_SIZE = 4096
#: Relative error of a float quantile (and of ``stdev``) once a histogram
#: has folded: a bucket keeps a double's sign, exponent and top seven
#: mantissa bits, so it spans at most 2**-7 of its lower edge and its
#: midpoint lies within 2**-8 of every value in it.
EPSILON = 2.0**-8

# A bucket key is the upper 32 bits of a double with the 45 low mantissa
# bits cleared: byte _DROP of the native double cleared, byte _CUT masked
# to its top three bits, and 32-bit half _HALF read as an unsigned int.
_DROP, _CUT, _HALF = (4, 5, 1) if sys.byteorder == "little" else (3, 2, 0)
_TOP3 = bytes(byte & 0xE0 for byte in range(256))
_BUCKET = 1 << 13  # one bucket's width, in key units
_EXPONENT = 0x7FF00000
_DOUBLE, _BITS = struct.Struct("<d"), struct.Struct("<Q")


def _bucket_keys(values: array):
    """The bucket key of each double in *values*, one C pass per step."""
    raw = values.tobytes()
    keys = bytearray(raw)
    keys[_DROP::8] = bytes(len(values))
    keys[_CUT::8] = raw[_CUT::8].translate(_TOP3)
    return memoryview(keys).cast("I")[_HALF::2]


def _key_value(key: int) -> float:
    """The double a bucket key reads as: its midpoint; the lower edge for
    zero and subnormals (so a zero reads as zero); ±inf and NaN as such."""
    low = _DOUBLE.unpack(_BITS.pack(key << 32))[0]
    if key & _EXPONENT in (0, _EXPONENT):
        return low
    return (low + _DOUBLE.unpack(_BITS.pack((key + _BUCKET) << 32))[0]) / 2


class Histogram:
    """Summary statistics over a run's observations, in bounded space.

    The first :data:`BUFFER_SIZE` observations are kept exactly, unboxed, in
    arrival order: C int64s while every observation has been an ``int``
    (rounds per height: they summarise as ints), C doubles from the
    first float on (ints already seen, and any that follow, then read back
    as floats of equal value).  Up to there every statistic is the one a
    plain list of the observations gives.

    One more and the buffer folds into a table of buckets, and again every
    time it refills: ints count by exact value, so an all-int histogram
    keeps every statistic but ``stdev``'s last bits; floats count by
    logarithmic bucket, so a quantile (interpolated between bucket
    midpoints, clamped to ``[min, max]``) and ``stdev`` are within
    :data:`EPSILON` of the exact ones — relative to the order statistics
    interpolated, and to the quadratic mean, respectively.  ``count``,
    ``min`` and ``max`` stay exact, ``total`` stays the left-to-right sum.
    A NaN makes every quantile past the buffer NaN; ±inf read as
    themselves.  The table grows with the range of values seen, never with
    their number.
    """

    __slots__ = (
        "name", "_buffer", "_buckets", "_folded", "_total", "_low", "_high",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._buffer = array("q")
        self._buckets = _Tally()  # value (ints) or bucket key (floats) -> n
        self._folded = 0  # observations in the table
        self._total = 0  # their left-to-right sum
        self._low: tuple = ()  # (their min,), kept as min() would fold it
        self._high: tuple = ()

    def observe(self, value: float) -> None:
        buffer = self._buffer
        try:
            buffer.append(value)
        except (TypeError, OverflowError):  # first float (or an int past 63 bits)
            buffer = self._promote()
            buffer.append(value)
        if len(buffer) > BUFFER_SIZE:
            self._fold()

    def _promote(self) -> array:
        """Doubles from here on: the buffer, the extremes and the table."""
        self._buffer = array("d", self._buffer)
        self._low, self._high = tuple(map(float, self._low)), tuple(map(float, self._high))
        if self._buckets:  # ints already folded: recount them by bucket
            ints, table = self._buckets, _Tally()
            for key, n in zip(_bucket_keys(array("d", ints)), ints.values()):
                table[key] += n
            self._buckets = table
        return self._buffer

    def _fold(self) -> None:
        buffer = self._buffer
        self._total = sum(buffer, self._total)
        self._folded += len(buffer)
        self._low = (min(chain(self._low, buffer)),)
        self._high = (max(chain(self._high, buffer)),)
        if buffer.typecode == "q":
            self._buckets.update(buffer)
        else:
            self._buckets.update(_bucket_keys(buffer))
        del buffer[:]

    def _table(self) -> list:
        """``(value, n)`` for everything observed, ascending by value, the
        buffer counted as if folded (so it does not depend on the order of
        observation); a float bucket reads as :func:`_key_value`."""
        buffer, table = self._buffer, self._buckets.copy()
        if buffer.typecode == "q":
            table.update(buffer)
            return sorted(table.items())
        table.update(_bucket_keys(buffer))
        return sorted((_key_value(key), n) for key, n in table.items())

    @property
    def count(self) -> int:
        return self._folded + len(self._buffer)

    @property
    def total(self) -> float:
        return sum(self._buffer, self._total)

    def mean(self) -> float:
        if not self.count:
            return math.nan
        return self.total / self.count

    def stdev(self) -> float:
        n = self.count
        if n < 2:
            return 0.0
        mu = self.mean()
        if not self._folded:
            return math.sqrt(sum((x - mu) ** 2 for x in self._buffer) / (n - 1))
        return math.sqrt(sum(k * (x - mu) ** 2 for x, k in self._table()) / (n - 1))

    def percentile(self, q: float) -> float:
        """Return the q-th percentile (0 <= q <= 100), linear interpolation."""
        return self._percentiles(q)[0]

    def _ranked(self) -> Callable[[int], float]:
        """``index -> the index-th smallest observation`` (a bucket's value
        once the histogram has folded), from one sort that lives as long
        as the function."""
        if not self._folded:
            return sorted(self._buffer).__getitem__
        table = self._table()
        values = [value for value, _ in table]
        if any(value != value for value in values):  # a NaN: nothing to order
            return lambda index: math.nan
        ends = list(accumulate(n for _, n in table))
        return lambda index: values[bisect_right(ends, index)]

    def _percentiles(self, *qs: float) -> list:
        """Every one of *qs* from one :meth:`_ranked`."""
        n = self.count
        if not n:
            return [math.nan] * len(qs)
        at = self._ranked()
        ends = self._folded and (self.min(), self.max())
        found = []
        for q in qs:
            if not 0 <= q <= 100:
                raise ValueError("percentile must be in [0, 100]")
            rank = (q / 100) * (n - 1)
            low = int(math.floor(rank))
            high = int(math.ceil(rank))
            if low == high:
                value = at(low)
            else:
                frac = rank - low
                value = at(low) * (1 - frac) + at(high) * frac
            if ends:
                value = min(max(value, ends[0]), ends[1])
            found.append(value)
        return found

    def min(self) -> float:
        return min(chain(self._low, self._buffer)) if self.count else math.nan

    def max(self) -> float:
        return max(chain(self._high, self._buffer)) if self.count else math.nan

    def summary(self) -> dict:
        """Return a dict of the usual summary statistics.

        Undefined statistics (empty histogram, or NaN observations) export
        as ``None`` rather than NaN so the dict is JSON-serialisable —
        ``json.dumps`` renders NaN as the invalid token ``NaN``.
        """
        p50, p95, p99 = self._percentiles(50, 95, 99)
        return {
            "count": self.count,
            "mean": json_safe(self.mean()),
            "stdev": json_safe(self.stdev()) if self.count else None,
            "p50": json_safe(p50),
            "p95": json_safe(p95),
            "p99": json_safe(p99),
            "min": json_safe(self.min()),
            "max": json_safe(self.max()),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean():.4f})"


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

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._names: dict[tuple, str] = {}  # (family, parts) -> expanded name

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

    def snapshot(self) -> dict:
        """Every metric as plain JSON-safe data, by sorted name: a counter
        or gauge as its value (a NaN/inf gauge as null), a histogram as its
        :meth:`Histogram.summary`."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: json_safe(g.value) for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.summary() for n, h in sorted(self.histograms.items())},
        }
