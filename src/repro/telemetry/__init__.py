"""Causal span tracing, health probes, invariant monitors and exporters.

Everything here is an *observer* of the simulation: each plane attaches
to the simulator's observation stream (:mod:`repro.sim.observe`), writes
only its own state and ``sim.metrics`` (never another plane) and consumes
no RNG, so enabling telemetry cannot change the determinism digest.
:func:`enable_telemetry` attaches them to a system; the exporters read
them back from ``sim.planes``.  See DESIGN.md § Observability.
"""

from typing import Optional

from repro.sim.tracing import TraceLog
from repro.telemetry.export import (
    telemetry_snapshot,
    to_chrome_trace,
    write_chrome_trace,
    write_json,
)
from repro.telemetry.health import HealthProbe
from repro.telemetry.monitor import (
    CheckpointAuditor,
    ExactlyOnceAuditor,
    FinalityAuditor,
    InvariantMonitor,
    InvariantViolation,
    MembershipAuditor,
    SupplyAuditor,
)
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.rounds import (
    RoundTracer,
    StallDiagnoser,
    render_stall_report,
)
from repro.telemetry.spans import SpanTracer, route_shape, subnet_level


def enable_telemetry(
    system,
    health_interval: Optional[float] = None,
    monitors: bool = False,
    postmortem_dir: Optional[str] = None,
) -> dict:
    """Attach telemetry planes to *system*'s simulator; returns ``sim.planes``.

    The one place that decides which planes a run gets.  Always ``spans``,
    ``rounds`` and ``stall``.  *health_interval* adds a ``health`` probe
    sampling every that many simulated seconds; ``monitors=True`` adds
    ``invariants`` (the five default auditors), a ``recorder`` that dumps
    a postmortem bundle into *postmortem_dir* (or ``$REPRO_POSTMORTEM_DIR``)
    on every violation and ``wait_for`` timeout, and the ``trace`` log the
    recorder's bundles carry the tail of.  Digest-neutral, and
    idempotent per plane, so calls may add planes in any order.
    """
    sim = system.sim
    planes = sim.planes
    if "spans" not in planes:
        sim.attach(SpanTracer(sim))
    if "rounds" not in planes:
        sim.attach(RoundTracer(sim))
        # Before the recorder: its wait-timeout bundle carries the stall
        # reports this plane adds to the diagnosis.
        sim.attach(StallDiagnoser(system))
    if health_interval is not None and "health" not in planes:
        sim.attach(HealthProbe(system, interval=health_interval).start())
    if monitors and "invariants" not in planes:
        # The trace log before the monitor: a violation's bundle then ends
        # its trace tail with the commit that tripped it.
        if "trace" not in planes:
            sim.attach(TraceLog(sim))
        recorder = FlightRecorder(sim, system=system, out_dir=postmortem_dir)
        sim.attach(recorder.install())
        sim.attach(InvariantMonitor(system, recorder=recorder))
    return planes


__all__ = [
    "CheckpointAuditor",
    "ExactlyOnceAuditor",
    "FinalityAuditor",
    "FlightRecorder",
    "HealthProbe",
    "InvariantMonitor",
    "InvariantViolation",
    "MembershipAuditor",
    "RoundTracer",
    "SpanTracer",
    "StallDiagnoser",
    "SupplyAuditor",
    "enable_telemetry",
    "render_stall_report",
    "route_shape",
    "subnet_level",
    "telemetry_snapshot",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_json",
]
