"""Causal span tracing, health probes, invariant monitors and exporters.

Everything here is an *observer* of the simulation: each plane attaches
to the simulator's observation stream (:mod:`repro.sim.observe`), writes
only to ``sim.metrics`` (never the trace log) and consumes no RNG, so
enabling telemetry cannot change the determinism digest.
:func:`enable_telemetry` attaches them to a system; the exporters read
them back from ``sim.planes``.  See DESIGN.md § Observability.
"""

from typing import Optional

from repro.telemetry.export import (
    telemetry_snapshot,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_json,
    write_prometheus,
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
from repro.telemetry.profiler import SamplingProfiler
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
    profile: bool = False,
) -> dict:
    """Attach telemetry planes to *system*'s simulator; returns ``sim.planes``.

    The one place that decides which planes a run gets.  Always ``spans``,
    ``rounds`` and ``stall``.  *health_interval* adds a ``health`` probe
    sampling every that many simulated seconds; ``monitors=True`` adds
    ``invariants`` (the five default auditors) and a ``recorder`` that dumps
    a postmortem bundle into *postmortem_dir* (or ``$REPRO_POSTMORTEM_DIR``)
    on every violation and ``wait_for`` timeout; ``profile=True`` starts a
    sampling ``profile`` plane (stop it before reading it; benchmarks do so
    in ``write_bench_json``).  Digest-neutral, and idempotent per plane, so
    calls may add planes in any order.
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
        recorder = FlightRecorder(sim, system=system, out_dir=postmortem_dir)
        sim.attach(recorder.install())
        sim.attach(InvariantMonitor(system, recorder=recorder))
    if profile and "profile" not in planes:
        sim.attach(SamplingProfiler(sim).start())
    return planes


def __getattr__(name):
    # Lazy: importing these eagerly would shadow `python -m
    # repro.telemetry.profdiff` (runpy warns when the CLI module is
    # already in sys.modules via its package).
    if name in ("diff_profiles", "render_diff"):
        from repro.telemetry import profdiff

        return getattr(profdiff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
    "SamplingProfiler",
    "SpanTracer",
    "StallDiagnoser",
    "SupplyAuditor",
    "diff_profiles",
    "enable_telemetry",
    "render_diff",
    "render_stall_report",
    "route_shape",
    "subnet_level",
    "telemetry_snapshot",
    "to_chrome_trace",
    "to_prometheus",
    "write_chrome_trace",
    "write_json",
    "write_prometheus",
]
