"""Structured trace log.

Every protocol-relevant action (block committed, checkpoint submitted,
cross-msg applied, …) is appended as a :class:`TraceRecord`.  The log's
digest makes determinism testable: two runs with the same seed must produce
identical digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped structured trace entry."""

    time: float
    kind: str
    subject: str
    detail: tuple = field(default_factory=tuple)

    def render(self) -> str:
        parts = ", ".join(str(d) for d in self.detail)
        return f"[{self.time:12.6f}] {self.kind:<24} {self.subject} {parts}"


class TraceLog:
    """Append-only log of :class:`TraceRecord` entries.

    A bounded log (``capacity`` set) never loses records silently: the
    first overflow appends one ``trace.capacity`` warning record, and every
    dropped record is counted in :attr:`dropped`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None, capacity: Optional[int] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.records: list[TraceRecord] = []
        self.capacity = capacity
        self.enabled = True
        self.dropped = 0

    def emit(self, kind: str, subject: str, *detail: Any) -> None:
        """Append a record at the current simulated time."""
        if not self.enabled:
            return
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            if self.dropped == 1:
                # One warning record (the log's only overshoot past capacity)
                # so a truncated log is distinguishable from a complete one.
                self.records.append(
                    TraceRecord(
                        time=self._clock(),
                        kind="trace.capacity",
                        subject=f"capacity={self.capacity}",
                        detail=("further records dropped",),
                    )
                )
            return
        record = TraceRecord(
            time=self._clock(),
            kind=kind,
            subject=str(subject),
            detail=tuple(str(d) for d in detail),
        )
        self.records.append(record)

    def filter(self, kind: Optional[str] = None, subject: Optional[str] = None) -> Iterator[TraceRecord]:
        """Yield records matching the given kind and/or subject."""
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if subject is not None and record.subject != subject:
                continue
            yield record

    def count(self, kind: str) -> int:
        return sum(1 for _ in self.filter(kind=kind))

    def digest(self) -> str:
        """SHA-256 over the full rendered log — the determinism fingerprint."""
        hasher = hashlib.sha256()
        for record in self.records:
            hasher.update(record.render().encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self.records)
