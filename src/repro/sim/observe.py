"""The observation stream's vocabulary: what components say happened.

A producer reports once and unguarded, ``sim.observe(BlockCommitted, node,
block, events)``; :meth:`~repro.sim.scheduler.Simulator.observe` builds one
record and hands it to every subscribed handler, or builds nothing when
nobody subscribed.  A watcher is a :class:`Plane`: ``sim.attach(plane)``
subscribes its handlers and registers it on ``sim.planes`` under its
section name.  The record types below are the whole contract between the
protocol and whatever watches it, so a new plane edits no producer.

Planes observe, never participate: a handler writes to ``sim.metrics`` and
its own structures — never the trace log, an RNG stream or chain state —
so attaching one cannot move a digest.  Protocol code that must *react* to
a commit registers with ``NodeRuntime.on_commit`` and stays off the stream.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

#: A block became canonical on one node (every validator reports its own);
#: *events* are the ``(kind, payload)`` receipt events of its payload.
BlockCommitted = namedtuple("BlockCommitted", "node block events")
#: A node's head moved to a block that does not extend *old_head* (a CID);
#: *depth* counts the abandoned blocks back to the fork point.
ChainReorg = namedtuple("ChainReorg", "node old_head new_head_block depth")
#: One round/view transition of a consensus engine.  *kind*: round_start,
#: round_skip, propose, proposal, vote, lock, timeout or commit; *fields*:
#: height, round and what the kind adds (proposer, quorum/total power,
#: voter/power/cid, step, slot).
RoundEvent = namedtuple("RoundEvent", "subnet node_id kind time fields")
#: A validator sent a signed checkpoint to the parent's subnet actor.
CheckpointSubmitted = namedtuple("CheckpointSubmitted", "cid_hex subnet window")
#: A wallet handed a cross-net send to a node of *source*; the message gets
#: its CID only when that chain executes it.
CrossMsgSubmitted = namedtuple("CrossMsgSubmitted", "source destination to_addr value")
#: A health probe finished a round: *latest* maps subnet path -> sample.
HealthSampled = namedtuple("HealthSampled", "latest")
#: ``HierarchicalSystem.wait_for`` gave up.  The one record subscribers add
#: to: *diagnosis* arrives with label, timeout, time and health, handlers
#: attach ``stall_reports`` / ``postmortem``, the system keeps the result.
WaitTimedOut = namedtuple("WaitTimedOut", "diagnosis")


class Plane:
    """What ``Simulator.attach`` accepts."""

    #: Key on ``sim.planes`` and in the ``repro.telemetry/v1`` document.
    section: str = ""
    #: Record type -> name of the handler method (looked up when attaching).
    observes: dict = {}

    def summary(self) -> Optional[dict]:
        """This plane's section of the telemetry document; ``None`` = none."""
        return None
