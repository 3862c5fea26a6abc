"""Periodic per-subnet health sampling.

:class:`HealthProbe` rides the simulator's ``every()`` timer and takes
:meth:`HierarchicalSystem.health_snapshot()
<repro.hierarchy.network.HierarchicalSystem.health_snapshot>` — per subnet:

- ``height`` — the frontier: the highest head among the subnet's
  validators (one crashed validator does not freeze it);
- ``min_height`` — the laggard;
- ``mempool`` — pending user messages;
- ``pending_crossmsgs`` — cross-msg pool depth (unapplied top-down
  messages + unresolved bottom-up metas);
- ``checkpoint_lag`` — windows sealed locally but not yet recorded by the
  parent's SA (0 = fully anchored).

Each sample also carries its ``time``.  Every completed round is reported
as a :class:`~repro.sim.observe.HealthSampled` (the recorder and the
scenario watchdog read it), and the latest round is the run document's
``health`` section.

Sampling is read-only: it never touches chain state, RNG streams or the
trace log, so enabling the probe cannot change the determinism digest.
"""

from __future__ import annotations

from repro.sim.observe import HealthSampled, Plane


class HealthProbe(Plane):
    """Samples per-subnet health every *interval* simulated seconds."""

    section = "health"

    def __init__(self, system, interval: float = 1.0) -> None:
        self.system = system
        self.sim = system.sim
        self.interval = interval
        self.latest: dict[str, dict] = {}
        self._stop = None

    def start(self) -> "HealthProbe":
        if self._stop is None:
            self._stop = self.sim.every(self.interval, self.sample, label="telemetry:health")
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    def sample(self) -> dict:
        """Take one sample of every subnet; returns {path: sample}."""
        now = self.sim.now
        latest = self.system.health_snapshot()
        for sample in latest.values():
            sample["time"] = now
        self.latest = latest  # a fresh dict per round: records never alias
        self.sim.observe(HealthSampled, latest)
        return latest

    def summary(self) -> dict:
        return {path: dict(sample) for path, sample in sorted(self.latest.items())}
