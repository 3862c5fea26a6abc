"""Structured trace log.

Every protocol-relevant action (block committed, checkpoint submitted,
cross-msg applied, …) is emitted as a :class:`TraceRecord`.  The log's
digest makes determinism testable: two runs with the same seed must produce
identical digests.

The log keeps what is read of it, and no more per record: the digest rolls
forward at each emit (over the same rendered lines a pass over every record
would hash), the number of records and the number per kind are counted,
and the records themselves live in a ring of the newest :data:`RING` — the
flight recorder's trace tail.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Optional

#: Records the log holds: the newest, at least the flight recorder's tail.
RING = 1024
#: One rendered record: time, kind, subject, details (what the digest hashes).
_LINE = "[%12.6f] %-24s %s %s"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped structured trace entry."""

    time: float
    kind: str
    subject: str
    detail: tuple = field(default_factory=tuple)

    def render(self) -> str:
        return _LINE % (self.time, self.kind, self.subject, ", ".join(map(str, self.detail)))


class TraceLog:
    """A rolling digest and exact counts over every :class:`TraceRecord`
    emitted, and a ring of the newest :data:`RING` records."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.records: deque = deque(maxlen=RING)
        self._emitted = 0
        self._counts: dict[str, int] = {}
        self._hasher = hashlib.sha256()

    def emit(self, kind: str, subject: str, *detail: Any) -> None:
        """Record an entry at the current simulated time."""
        now, subject, detail = self._clock(), str(subject), tuple(map(str, detail))
        self.records.append(TraceRecord(now, kind, subject, detail))
        self._emitted += 1
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        # render(), spelled inline: this runs for every record.
        line = _LINE % (now, kind, subject, ", ".join(detail)) + "\n"
        self._hasher.update(line.encode("utf-8"))

    def tail(self, n: int) -> list:
        """The newest *n* records still in the ring, oldest first."""
        records = self.records
        return list(islice(records, max(0, len(records) - n), None))

    def count(self, kind: str) -> int:
        """Records of *kind* ever emitted."""
        return self._counts.get(kind, 0)

    def digest(self) -> str:
        """SHA-256 over the full rendered log — the determinism fingerprint."""
        return self._hasher.copy().hexdigest()

    def __len__(self) -> int:
        return self._emitted
