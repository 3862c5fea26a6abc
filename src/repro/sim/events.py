"""Event primitives for the discrete-event simulator.

An :class:`Event` is a callback scheduled at a simulated timestamp.  Events
with equal timestamps are ordered by an insertion sequence number so that
execution order is deterministic regardless of heap internals: ties fire in
FIFO (insertion) order.

The FIFO tie rule is a *legal* schedule, not the only one — any permutation
of same-timestamp events is an equally valid discrete-event schedule, and
protocol outcomes must not depend on which one the queue happens to pick.
:meth:`EventQueue.set_tie_shuffle` deterministically permutes ties under a
seed so that hidden tie-order dependence becomes detectable (see
``Simulator(tie_shuffle=...)`` and ``repro.lint``).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterator, Optional

_MIX_MULT = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier (splitmix64)
_MASK64 = (1 << 64) - 1


def tie_mix(shuffle_seed: int, seq: int) -> int:
    """A keyed 64-bit integer hash of *seq* — the tie-shuffle permutation.

    splitmix64-style finalizer: fast, stateless, stable across runs and
    Python versions (no dependence on ``hash()`` randomization).
    """
    z = (seq + shuffle_seed * _MIX_MULT) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Event:
    """A scheduled callback in simulated time.

    Events are created through :meth:`repro.sim.scheduler.Simulator.schedule`
    rather than directly.  An event can be cancelled before it fires; a
    cancelled event is skipped by the queue and never executed.
    """

    __slots__ = (
        "time", "seq", "tie", "callback", "args", "kwargs", "cancelled", "label", "popped",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        label: str = "",
        tie: int = 0,
    ) -> None:
        self.time = time
        self.seq = seq
        # Secondary sort key among same-timestamp events.  0 under the
        # default FIFO rule (comparison then falls through to seq); a keyed
        # hash of seq under tie-shuffle (see EventQueue.set_tie_shuffle).
        self.tie = tie
        self.callback = callback
        self.args = args
        # None (not a fresh dict) when there are none: almost every event.
        self.kwargs = kwargs or None
        self.cancelled = False
        self.label = label
        self.popped = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    def fire(self) -> Any:
        """Run the event's callback.  The queue calls this, not users."""
        if self.kwargs is None:
            return self.callback(*self.args)
        return self.callback(*self.args, **self.kwargs)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.tie, self.seq) < (other.time, other.tie, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.callback, "__name__", "?")
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Ordering contract: events pop in ascending ``(time, tie, seq)`` order.
    ``tie`` is 0 for every event by default, so same-timestamp events fire
    FIFO by insertion sequence — two runs that push the same events in the
    same order always pop them in the same order, and permuting the
    insertion order of *distinct-timestamp* events cannot change pop order.
    Under :meth:`set_tie_shuffle` the tie key becomes a seeded hash of the
    sequence number, deterministically permuting same-timestamp ties.
    """

    def __init__(self) -> None:
        # Heap entries are (time, tie, seq, event) tuples: seq is unique, so
        # comparisons resolve on the first three fields in C and never reach
        # the Event object.  The key is exactly Event.__lt__'s key, so pop
        # order is identical to a heap of bare events.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._tie_shuffle: Optional[int] = None

    def set_tie_shuffle(self, shuffle_seed: Optional[int]) -> None:
        """Permute same-timestamp ties under *shuffle_seed* (None = FIFO).

        Must be called before any events are pushed: mixing tie disciplines
        within one queue would make the already-queued prefix incomparable
        with the rest.
        """
        if self._heap or self._seq:
            raise RuntimeError("set_tie_shuffle() requires an empty, unused queue")
        self._tie_shuffle = shuffle_seed

    @property
    def tie_shuffle(self) -> Optional[int]:
        return self._tie_shuffle

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        label: str = "",
    ) -> Event:
        """Schedule *callback* at absolute simulated *time*."""
        seq = self._seq
        tie = 0 if self._tie_shuffle is None else tie_mix(self._tie_shuffle, seq)
        event = Event(time, seq, callback, args, kwargs, label, tie)
        heapq.heappush(self._heap, (time, tie, seq, event))
        self._seq = seq + 1
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        event = self.pop_due(math.inf)
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_due(self, horizon: float) -> Optional[Event]:
        """Remove and return the earliest live event at or before *horizon*
        (``None`` when there is none) — the run loop's one call per event."""
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                self._live -= 1
                event.popped = True
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None``."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def discard_cancelled(self) -> None:
        """Compact the heap, dropping cancelled events eagerly."""
        live = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(live)
        self._heap = live

    def note_cancel(self) -> None:
        """Record that one previously-live event was cancelled externally."""
        if self._live > 0:
            self._live -= 1

    def iter_pending(self) -> Iterator[Event]:
        """Yield live events in an arbitrary order (inspection only)."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)
