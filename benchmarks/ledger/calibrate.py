"""Host-speed calibration: wall seconds turned into *reference* seconds.

The reference box is a shared 2-core VM whose speed wanders by 25-50 %
over seconds and over minutes (and now and then by 2x), so a plain
wall-clock rate repeats no better than +-10 % and two sets of runs can
differ by a whole "phase" of the host.  A :class:`Calibrator` times one
fixed unit of interpreter work (hashing, heap pushes/pops, object
construction, calls — the mix the simulator is made of) at every marker the
harness places, a few dozen times per wall second.  A span is then cut into
windows of ``WINDOW`` stretches (about half a second), and the wall time of
each window is scaled by ``REF_UNIT_S`` over the *mean* unit cost of the
samples in and around it: a window that ran while the host was 30 % slow
counts as 30 % shorter.  Summed over a region this is its length in
*reference seconds* — the seconds it would have taken had the unit cost
exactly ``REF_UNIT_S`` throughout.

Windows, and means, because a single sample is a poor estimate of the
host's speed when the slowdown comes as stolen time slices: a 1.5 ms unit is
either hit by a multi-millisecond gap or not, and dividing each stretch by
its own two samples is biased (the mean of 1/u exceeds 1/mean u) — under two
competing busy loops it read 10-13 % low where half-second windows read
within 2 % (README, "Noise").

The unit lives in the harness, outside the program under test, so no change
under ``src/`` can move it.  It is cache-resident, allocates nothing that
survives the call and keeps its heap at a constant size, so neither the
program's memory footprint nor the cyclic GC (whose cost depends on the
*workload's* heap) reaches it.
"""

from __future__ import annotations

import hashlib
import heapq
from time import perf_counter

#: Cost of one unit on the reference box in its usual state.  Only a scale:
#: it makes reference seconds read like that box's wall seconds.
REF_UNIT_S = 0.0015
#: Stretches per window: ~0.5 s at the 32 markers per second of a region.
WINDOW = 16

_HASH_ROUNDS = 1400
_HEAP_ROUNDS = 1100
_HEAP_SIZE = 500
_BUFFER = b"ledger-calibration-unit-".ljust(96, b"x")


class _Entry:
    __slots__ = ("due", "callback")

    def __init__(self, due: int, callback) -> None:
        self.due = due
        self.callback = callback


def _callback(value: int) -> int:
    return value + 1


class Calibrator:
    """Timed samples of the calibration unit, and spans measured between them."""

    def __init__(self) -> None:
        self.starts: list = []  # perf_counter when sample i began
        self.ends: list = []  # ... and when it ended
        self._heap: list = []
        self._sequence = 0
        self._state = 12345
        for _ in range(3):  # fill the heap, warm the code paths
            self._unit()

    def _unit(self) -> None:
        sha256 = hashlib.sha256
        for _ in range(_HASH_ROUNDS):
            sha256(_BUFFER).digest()
        heap, push, pop = self._heap, heapq.heappush, heapq.heappop
        state, sequence = self._state, self._sequence
        for _ in range(_HEAP_ROUNDS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            sequence += 1
            push(heap, (state, sequence, _Entry(state, _callback)))
            if len(heap) > _HEAP_SIZE:
                entry = pop(heap)[2]
                entry.callback(entry.due)
        self._state, self._sequence = state, sequence

    def sample(self) -> int:
        """Time one unit now; returns the sample's index."""
        start = perf_counter()
        self._unit()
        self.ends.append(perf_counter())
        self.starts.append(start)
        return len(self.starts) - 1

    def unit_seconds(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def gaps(self, first: int, last: int) -> list:
        """Reference seconds of every stretch between neighbouring samples
        from sample *first* to sample *last* (the samples' own time is not
        part of any stretch).  The stretches are grouped into equal windows
        of about ``WINDOW``; each window is scaled by the mean cost of the
        samples at its stretches' ends."""
        starts, ends = self.starts, self.ends
        stretches = last - first
        windows = max(1, round(stretches / WINDOW))
        scaled = []
        for window in range(windows):
            begin = first + stretches * window // windows
            end = first + stretches * (window + 1) // windows
            unit = sum(ends[i] - starts[i] for i in range(begin, end + 1)) / (end - begin + 1)
            scale = REF_UNIT_S / unit
            scaled.extend((starts[i + 1] - ends[i]) * scale for i in range(begin, end))
        return scaled

    def ref_seconds(self, first: int, last: int) -> float:
        return sum(self.gaps(first, last))

    def wall_seconds(self, first: int, last: int) -> float:
        """Plain wall seconds of the same stretches."""
        return sum(self.starts[i + 1] - self.ends[i] for i in range(first, last))

    def span_seconds(self, first: int, last: int) -> float:
        """Wall seconds from the end of *first* to the start of *last*,
        the samples in between included."""
        return self.starts[last] - self.ends[first]

    def slowdown(self, first: int, last: int) -> float:
        """Mean unit cost over the samples *first*..*last*, in units of
        ``REF_UNIT_S``: how slow the host ran relative to the reference."""
        units = [self.unit_seconds(i) for i in range(first, last + 1)]
        return sum(units) / len(units) / REF_UNIT_S
