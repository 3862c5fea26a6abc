"""Periodic per-subnet health sampling.

:class:`HealthProbe` rides the simulator's ``every()`` timer, takes
:meth:`HierarchicalSystem.health_snapshot()
<repro.hierarchy.network.HierarchicalSystem.health_snapshot>` and records
each subnet's vital signs onto :class:`~repro.sim.metrics.TimeSeries`:

- ``health.<subnet>.height`` — the frontier: the highest head among the
  subnet's validators (one crashed validator does not freeze it);
- ``health.<subnet>.mempool`` — pending user messages;
- ``health.<subnet>.pending_crossmsgs`` — cross-msg pool depth
  (unapplied top-down messages + unresolved bottom-up metas);
- ``health.<subnet>.checkpoint_lag`` — windows sealed locally but not yet
  recorded by the parent's SA (0 = fully anchored).

Each sample also carries ``min_height`` (the laggard) and its ``time``, and
every completed round is reported as a
:class:`~repro.sim.observe.HealthSampled`.

Sampling is read-only: it never touches chain state, RNG streams or the
trace log, so enabling the probe cannot change the determinism digest.
"""

from __future__ import annotations

from repro.sim.observe import HealthSampled, Plane

#: Sample field -> the time-series family it is recorded on.
_SERIES = {
    "height": "health.*.height",
    "mempool": "health.*.mempool",
    "pending_crossmsgs": "health.*.pending_crossmsgs",
    "checkpoint_lag": "health.*.checkpoint_lag",
}
FIELDS = tuple(_SERIES)


class HealthProbe(Plane):
    """Samples per-subnet health onto the sim's metrics time series."""

    section = "health"

    def __init__(self, system, interval: float = 1.0) -> None:
        self.system = system
        self.sim = system.sim
        self.interval = interval
        self.latest: dict[str, dict] = {}
        self._stop = None

    def start(self) -> "HealthProbe":
        if self._stop is None:
            self._stop = self.sim.every(
                self.interval, self.sample, label="telemetry:health", on_error="log"
            )
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    def sample(self) -> dict:
        """Take one sample of every subnet; returns {path: sample}."""
        now = self.sim.now
        metrics = self.sim.metrics
        latest = self.system.health_snapshot()
        for path, sample in latest.items():
            sample["time"] = now
            for field, family in _SERIES.items():
                value = sample[field]
                if value is not None:
                    metrics.timeseries(family, path).record(now, value)
        self.latest = latest  # a fresh dict per round: records never alias
        self.sim.observe(HealthSampled, latest)
        return latest

    def summary(self) -> dict:
        return {path: dict(sample) for path, sample in sorted(self.latest.items())}
