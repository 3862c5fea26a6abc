"""The trace log: a plane that turns what the stream says into log lines.

Every protocol-relevant action (block committed, checkpoint submitted,
cross-msg applied, …) is reported once, on the observation stream
(:mod:`repro.sim.observe`).  The :class:`TraceLog` plane renders the records
a log line is made of — :class:`~repro.sim.observe.Noted` and the commit,
reorg and checkpoint-submission records — into :class:`TraceRecord` lines.
Its digest makes determinism testable: two runs with the same seed must
produce identical digests.  A run with no trace plane attached builds no
record and no line.

The log keeps what is read of it, and no more per record: the digest rolls
forward at each line (over the same rendered lines a pass over every record
would hash), the number of records and the number per kind are counted,
and the records themselves live in a ring of the newest :data:`RING` — the
flight recorder's trace tail.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from repro.crypto.cid import CID
from repro.sim.observe import BlockCommitted, ChainReorg, CheckpointSubmitted, Noted, Plane

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


class TraceLog(Plane):
    """A rolling digest and exact counts over every line the stream's
    records render to, and a ring of the newest :data:`RING` records —
    reported as the ``trace`` section (``records``, ``digest``)."""

    section = "trace"
    observes = {
        Noted: "on_noted",
        BlockCommitted: "on_block_commit",
        ChainReorg: "on_reorg",
        CheckpointSubmitted: "on_checkpoint_submitted",
    }

    def __init__(self, sim) -> None:
        self.sim = sim
        self.records: deque = deque(maxlen=RING)
        self._emitted = 0
        self._counts: dict[str, int] = {}
        self._hasher = hashlib.sha256()

    # -- the stream ----------------------------------------------------
    def on_noted(self, noted: Noted) -> None:
        self._line(noted.kind, str(noted.subject), tuple(map(str, noted.detail)))

    def on_block_commit(self, committed: BlockCommitted) -> None:
        block = committed.block
        self._line("block.commit", str(committed.node.subnet_id), (
            f"h={block.height}", block.cid.short(), f"msgs={len(block.messages)}",
        ))

    def on_reorg(self, reorg: ChainReorg) -> None:
        self._line("chain.reorg", str(reorg.node.subnet_id), (
            reorg.old_head.short(), reorg.new_head_block.cid.short(),
        ))

    def on_checkpoint_submitted(self, submitted: CheckpointSubmitted) -> None:
        self._line("checkpoint.submit", submitted.subnet, (
            f"window={submitted.window}", CID.from_hex(submitted.cid_hex).short(),
        ))

    def _line(self, kind: str, subject: str, detail: tuple) -> None:
        now = self.sim.now
        self.records.append(TraceRecord(now, kind, subject, detail))
        self._emitted += 1
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        # render(), spelled inline: this runs for every record.
        line = _LINE % (now, kind, subject, ", ".join(detail)) + "\n"
        self._hasher.update(line.encode("utf-8"))

    # -- readers -------------------------------------------------------
    def tail(self, n: int) -> list:
        """The newest *n* records still in the ring, oldest first."""
        records = self.records
        return list(islice(records, max(0, len(records) - n), None))

    def count(self, kind: str) -> int:
        """Records of *kind* ever rendered."""
        return self._counts.get(kind, 0)

    def digest(self) -> str:
        """SHA-256 over the full rendered log — the determinism fingerprint."""
        return self._hasher.copy().hexdigest()

    def summary(self) -> dict:
        return {"records": self._emitted, "digest": self.digest()}

    def __len__(self) -> int:
        return self._emitted
