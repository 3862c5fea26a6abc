"""Deterministic discrete-event simulation substrate.

Every component in the reproduction (network, consensus engines, nodes,
checkpointing timers) is driven by a single :class:`~repro.sim.scheduler.Simulator`
event loop with a simulated clock.  All randomness flows from a single root
seed through :class:`~repro.sim.rng.SeedSequence`, so a run is reproducible
bit-for-bit: identical seeds yield identical trace logs (see
:mod:`repro.sim.tracing`, a plane on the observation stream).
"""

from repro.sim.events import Event, EventQueue
from repro.sim.scheduler import Simulator
from repro.sim.rng import SeedSequence, derive_seed
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SeedSequence",
    "derive_seed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceLog",
    "TraceRecord",
]
