"""Flight recorder: bounded rings of recent activity + postmortem bundles.

The :class:`FlightRecorder` keeps what a crashed benchmark or a tripped
invariant needs for a diagnosis — recent dispatch activity and recent
health samples — in bounded ring buffers, adds the tail of an attached
trace log (:class:`~repro.sim.tracing.TraceLog`, ``sim.planes["trace"]``), and
reports them, with every subnet's head and the open cross-net spans, as
its ``recorder`` section of the run document.  On demand (or
automatically on every :class:`~repro.telemetry.monitor.InvariantViolation`
and ``wait_for`` timeout) it takes a *postmortem bundle*: the run document
at that moment, with the reason, the violation and any stall reports under
``extra``.  Render one with ``python -m repro.telemetry.report``.

Determinism: the rings hold simulated time and committed state — never
wall-clock, never RNG — so producing bundles cannot perturb the run and
re-running a seed reproduces a bundle outside the document's wall-clock
keys.  The recorder observes the dispatch bus through a pre-dispatch hook
that is the dispatch ring's own ``append`` — no Python frame per event —
and names the events (simulated time and label) only when a bundle is
taken, so a bundle taken inside an event ends with that event.  It writes
nothing back into the simulation.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Optional

from repro.sim.observe import HealthSampled, Plane, WaitTimedOut
from repro.telemetry.export import telemetry_snapshot, write_json

#: Trace records and dispatched events a bundle's tails hold; at most the
#: trace log's :data:`~repro.sim.tracing.RING`, or the trace tail is cut short.
TAIL = 256


class FlightRecorder(Plane):
    """Bounded recent-history rings, reported as the ``recorder`` section
    (with the open spans of an attached span tracer), and postmortem
    bundles on demand."""

    section = "recorder"
    observes = {HealthSampled: "note_health", WaitTimedOut: "on_wait_timeout"}

    def __init__(
        self,
        sim,
        system=None,
        out_dir: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.system = system
        self.out_dir = out_dir if out_dir is not None else os.environ.get(
            "REPRO_POSTMORTEM_DIR"
        )
        self._dispatch_ring: deque = deque(maxlen=TAIL)
        self._health_ring: deque = deque(maxlen=32)
        self._remove_hook = None
        self.bundles: list[dict] = []
        self.paths: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "FlightRecorder":
        """Start recording dispatch activity (idempotent)."""
        if self._remove_hook is None:
            self._remove_hook = self.sim.dispatch.on_pre_dispatch(self._dispatch_ring.append)
        return self

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def note_health(self, sampled: HealthSampled) -> None:
        self._health_ring.append(sampled.latest)

    def on_wait_timeout(self, timed_out: WaitTimedOut) -> None:
        diagnosis = timed_out.diagnosis
        self.dump(
            reason=f"wait-timeout:{diagnosis['label']}",
            stall_reports=diagnosis.get("stall_reports"),
        )
        if self.out_dir:
            diagnosis["postmortem"] = self.paths[-1]

    # ------------------------------------------------------------------
    # Bundles
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        label_of = self.sim.dispatch.label_of
        return {
            "trace_tail": self._trace_tail(),
            "dispatch_tail": [
                (event.time, label_of(event)) for event in self._dispatch_ring
            ],
            "health_ring": list(self._health_ring),
            "heads": self._heads(),
            "open_spans": self._open_spans(),
        }

    def dump(
        self,
        violation=None,
        reason: Optional[str] = None,
        stall_reports: Optional[list] = None,
    ) -> dict:
        """Take a bundle; write it if an out dir is set.

        *stall_reports* are :meth:`~repro.telemetry.rounds.StallDiagnoser.
        diagnose` reports — watchdogs and ``wait_for`` timeouts attach them
        so the bundle names the missing quorum, not just the stuck heights.
        """
        sim = self.sim
        bundle = telemetry_snapshot(sim, extra={
            "reason": reason or ("invariant-violation" if violation else "on-demand"),
            "violation": violation.as_dict() if violation is not None else None,
            "stall_reports": stall_reports or [],
        })
        self.bundles.append(bundle)
        if self.out_dir:
            path = os.path.join(
                self.out_dir,
                f"postmortem_s{sim.seed}_{len(self.bundles) - 1:03d}.json",
            )
            os.makedirs(self.out_dir, exist_ok=True)
            self.paths.append(write_json(path, bundle))
        return bundle

    def _trace_tail(self) -> list:
        log = self.sim.planes.get("trace")
        return [] if log is None else [record.render() for record in log.tail(TAIL)]

    def _open_spans(self, cap: int = 64) -> list:
        tracer = self.sim.planes.get("spans")
        if tracer is None:
            return []
        spans = []
        for trace_id, info in tracer.trace_info.items():
            if info.get("status") != "in-flight":
                continue
            spans.append(
                {
                    "trace_id": trace_id,
                    "info": info,
                    "events": [
                        {"phase": e.phase, "subnet": e.subnet, "time": e.time}
                        for e in tracer.traces.get(trace_id, ())
                    ],
                }
            )
            if len(spans) >= cap:
                break
        return spans

    def _heads(self) -> dict:
        if self.system is None:
            return {}
        heads = {}
        for subnet in self.system.subnets:
            node = self.system.nodes_by_subnet[subnet][0]
            head = node.store.head
            heads[subnet.path] = {
                "height": head.height,
                "cid": head.cid.hex()[:16],
            }
        return heads
