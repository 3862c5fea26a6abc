"""Causal span tracing for the cross-net message lifecycle.

The simulator's metrics and trace log are flat: they can say *how many*
cross-net messages committed, but not where one message spent its time.
:class:`SpanTracer` reconstructs causality.  Every cross-msg carries a
stable CID from origination to delivery (the frozen
:class:`~repro.hierarchy.crossmsg.CrossMsg` travels whole through every
SCA hop), and the SCA's receipt events now carry that CID — so observing
the committed chains of all subnets yields, per message, an ordered list
of hops:

    submit (user handed the tx to a node)
      → enqueue @ source subnet   (SCA committed the origination)
      → enqueue @ each relay hop  (SCA re-routed it top-down/bottom-up)
      → deliver @ destination     (funds/call landed)

and, per checkpoint: seal @ child → submit (validator sent it to the
parent SA) → commit @ parent.

Hop latencies land as simulated-time histograms on the simulator's
:class:`~repro.sim.metrics.MetricsRegistry`:

- ``xnet.hop.submit.L<k>`` — submission to source-chain commit at level k;
- ``xnet.hop.topdown.L<k>`` / ``xnet.hop.bottomup.L<k>`` — one hop whose
  *arrival* subnet sits at hierarchy level k (root = 0);
- ``xnet.e2e.{topdown,bottomup,path}`` — end-to-end by route shape;
- ``checkpoint.lag`` (+ ``checkpoint.lag.L<k>``) — child seal to parent
  commit; ``checkpoint.hop.seal_to_submit`` / ``.submit_to_commit`` split
  the signature-gathering wait from the parent-chain inclusion wait.

Determinism: the tracer receives every node's
:class:`~repro.sim.observe.BlockCommitted`.  Observations are deduplicated
on ``(trace id, phase, subnet)`` — the first committing node wins, which is
deterministic on a deterministic simulator.  The tracer writes **only**
to ``sim.metrics``; it never touches the trace log, so the determinism
digest is byte-identical with tracing enabled or disabled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.sim.observe import (
    BlockCommitted,
    CheckpointSubmitted,
    CrossMsgSubmitted,
    Plane,
)


def subnet_level(path: str) -> int:
    """Hierarchy level of a subnet path: ``/root`` = 0, ``/root/a/b`` = 2."""
    return path.count("/") - 1


def route_shape(source: str, destination: str) -> str:
    """Classify a route: ``topdown``, ``bottomup`` or ``path`` (via an LCA)."""
    if destination.startswith(source + "/"):
        return "topdown"
    if source.startswith(destination + "/"):
        return "bottomup"
    return "path"


#: Route shape -> the family its end-to-end delivery time is observed on.
_E2E_FAMILY = {
    "topdown": "xnet.e2e.topdown",
    "bottomup": "xnet.e2e.bottomup",
    "path": "xnet.e2e.path",
}


@dataclass
class SpanEvent:
    """One observed point in a message's (or checkpoint's) lifecycle."""

    time: float
    phase: str  # submit | enqueue | deliver | fail
    subnet: str


class SpanTracer(Plane):
    """Collects causal cross-net spans from committed-block receipt events.

    ``sim.attach(SpanTracer(sim))`` and every
    :class:`~repro.runtime.node.NodeRuntime`'s newly-canonical blocks,
    every checkpoint submission and every wallet's cross-net send reach it.
    """

    section = "spans"
    observes = {
        BlockCommitted: "on_block_commit",
        CheckpointSubmitted: "checkpoint_submitted",
        CrossMsgSubmitted: "note_submit",
    }
    reads_block_events = True

    def __init__(self, sim) -> None:
        self.sim = sim
        self.metrics = sim.metrics
        # msg cid hex -> ordered SpanEvents (deterministic arrival order)
        self.traces: dict[str, list[SpanEvent]] = {}
        # msg cid hex -> {to_subnet, to_addr, value, kind, status}
        self.trace_info: dict[str, dict] = {}
        # checkpoint cid hex -> {source, window, sealed, submitted, committed, child}
        self.checkpoints: dict[str, dict] = {}
        self._seen: set = set()
        # (source, to_subnet, to_addr, value) -> FIFO of submission times
        self._pending_submits: dict[tuple, deque] = {}

    # ------------------------------------------------------------------
    # Submission notes (trace-context origination)
    # ------------------------------------------------------------------
    def note_submit(self, submit: CrossMsgSubmitted) -> None:
        """Record that a user just submitted a cross-net send.

        The resulting :class:`CrossMsg`'s CID is only assigned when the
        source chain executes the SCA call, so submissions are held in a
        FIFO keyed by the route and bound to the first matching ``enqueue``
        observation — giving the span its true submit-time start.
        """
        self._pending_submits.setdefault(tuple(submit), deque()).append(self.sim.now)

    # ------------------------------------------------------------------
    # Commit-time feed (from every node; first observation wins)
    # ------------------------------------------------------------------
    def on_block_commit(self, commit: BlockCommitted) -> None:
        now = self.sim.now
        subnet_id = commit.node.subnet_id
        for kind, payload in commit.events:
            if kind == "crossmsg.topdown" or kind == "crossmsg.bottomup":
                _a, _b, value, cid, to_subnet, to_addr, mkind = payload
                self._observe_msg(
                    cid, "enqueue", subnet_id, now,
                    to_subnet=to_subnet, to_addr=to_addr, value=value, kind=mkind,
                )
            elif kind == "crossmsg.delivered":
                to_addr, value, cid = payload
                self._observe_msg(cid, "deliver", subnet_id, now)
            elif kind == "crossmsg.failed":
                to_addr, _error, cid = payload
                self._observe_msg(cid, "fail", subnet_id, now)
            elif kind == "checkpoint.sealed":
                window, ckpt_hex = payload
                self._observe_ckpt(ckpt_hex, "seal", subnet_id, now, window=window)
            elif kind == "checkpoint.committed":
                child_path, ckpt_hex = payload
                self._observe_ckpt(ckpt_hex, "commit", subnet_id, now, child=child_path)

    def checkpoint_submitted(self, submitted: CheckpointSubmitted) -> None:
        """A validator submitted to the parent SA (designated submitter or
        fallback; first one wins)."""
        ckpt_hex, subnet, window = submitted
        key = (ckpt_hex, "submit")
        if key in self._seen:
            return
        self._seen.add(key)
        now = self.sim.now
        entry = self.checkpoints.setdefault(ckpt_hex, {})
        entry["submitted"] = now
        entry.setdefault("source", subnet)
        entry.setdefault("window", window)
        sealed = entry.get("sealed")
        if sealed is not None:
            self.metrics.histogram("checkpoint.hop.seal_to_submit").observe(now - sealed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _observe_msg(
        self,
        trace_id: str,
        phase: str,
        subnet: str,
        now: float,
        to_subnet: Optional[str] = None,
        to_addr: Optional[str] = None,
        value: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> None:
        key = (trace_id, phase, subnet)
        if key in self._seen:
            return
        self._seen.add(key)

        events = self.traces.get(trace_id)
        if events is None:
            events = self.traces[trace_id] = []
            self.trace_info[trace_id] = {"status": "in-flight"}
        info = self.trace_info[trace_id]
        if to_subnet is not None:
            info.setdefault("to_subnet", to_subnet)
            info.setdefault("to_addr", to_addr)
            info.setdefault("value", value)
            info.setdefault("kind", kind)

        # Bind the user's submission (if any) as the span's true start.
        if phase == "enqueue" and not events and kind == "user":
            skey = (subnet, to_subnet, to_addr, value)
            pending = self._pending_submits.get(skey)
            if pending:
                t_submit = pending.popleft()
                events.append(SpanEvent(t_submit, "submit", subnet))
                self.metrics.histogram("xnet.hop.submit.L*", subnet_level(subnet)).observe(
                    now - t_submit
                )

        prev = events[-1] if events else None
        events.append(SpanEvent(now, phase, subnet))

        if prev is not None and prev.phase != "submit" and phase in ("enqueue", "deliver"):
            level, hop = subnet_level(subnet), now - prev.time
            if level > subnet_level(prev.subnet):
                self.metrics.histogram("xnet.hop.topdown.L*", level).observe(hop)
            else:
                self.metrics.histogram("xnet.hop.bottomup.L*", level).observe(hop)

        if phase == "deliver":
            info["status"] = "delivered"
            first = events[0]
            shape = route_shape(first.subnet, subnet)
            info.setdefault("shape", shape)
            self.metrics.histogram(_E2E_FAMILY[shape]).observe(now - first.time)
        elif phase == "fail":
            info["status"] = "failed"

    def _observe_ckpt(
        self,
        ckpt_hex: str,
        phase: str,
        subnet: str,
        now: float,
        window: Optional[int] = None,
        child: Optional[str] = None,
    ) -> None:
        key = (ckpt_hex, phase, subnet)
        if key in self._seen:
            return
        self._seen.add(key)
        entry = self.checkpoints.setdefault(ckpt_hex, {})
        if phase == "seal":
            entry["sealed"] = now
            entry["source"] = subnet
            entry["window"] = window
        elif phase == "commit":
            entry["committed"] = now
            entry["parent"] = subnet
            if child is not None:
                entry.setdefault("source", child)
            sealed = entry.get("sealed")
            if sealed is not None:
                lag = now - sealed
                self.metrics.histogram("checkpoint.lag").observe(lag)
                self.metrics.histogram(
                    "checkpoint.lag.L*", subnet_level(entry["source"])
                ).observe(lag)
            submitted = entry.get("submitted")
            if submitted is not None:
                self.metrics.histogram("checkpoint.hop.submit_to_commit").observe(
                    now - submitted
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def trace(self, trace_id: str) -> list:
        """The ordered span events of one message (empty if unknown)."""
        return list(self.traces.get(trace_id, ()))

    def delivered_count(self) -> int:
        return sum(
            1 for info in self.trace_info.values() if info["status"] == "delivered"
        )

    def summary(self) -> dict:
        """Plain-data overview used by the exporters."""
        return {
            "traces": len(self.traces),
            "delivered": self.delivered_count(),
            "failed": sum(
                1 for i in self.trace_info.values() if i["status"] == "failed"
            ),
            "in_flight": sum(
                1 for i in self.trace_info.values() if i["status"] == "in-flight"
            ),
            "checkpoints": len(self.checkpoints),
        }
