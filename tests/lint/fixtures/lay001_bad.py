"""LAY001 golden fixture: upward imports, at module scope and inside a
function body (both fire).

Checked under a fake path inside ``repro/sim/`` — the bottom layer
importing the top one.
"""
from repro.telemetry import SpanTracer


def install(sim):
    return sim.attach(SpanTracer(sim))


def enable_telemetry(system):
    # A lazy import is still an upward edge.
    from repro.telemetry import RoundTracer

    return system.sim.attach(RoundTracer(system.sim))
