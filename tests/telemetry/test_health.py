"""HealthProbe: periodic per-subnet vitals on the metrics time series."""

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.telemetry import enable_telemetry
from repro.telemetry.health import FIELDS, HealthProbe


@pytest.fixture(scope="module")
def probed_system():
    system = HierarchicalSystem(seed=23)
    system.start()
    enable_telemetry(system, health_interval=1.0)
    system.spawn_subnet(SubnetConfig(name="fast", validators=3, block_time=0.5))
    system.run_for(15)
    return system


def test_probe_samples_every_subnet(probed_system):
    latest = probed_system.sim.planes["health"].latest
    assert set(latest) == {"/root", "/root/fast"}
    for sample in latest.values():
        for field in FIELDS + ("min_height", "time"):
            assert field in sample


def test_probe_records_time_series(probed_system):
    series = probed_system.sim.metrics.series
    heights = series["health./root/fast.height"]
    assert len(heights.points) >= 10  # one per second of simulated time
    times = heights.times()
    assert times == sorted(times)
    # Chains advance: height samples are non-decreasing and end positive.
    values = [v for _, v in heights.points]
    assert values == sorted(values)
    assert values[-1] > 0


def test_checkpoint_lag_semantics(probed_system):
    latest = probed_system.sim.planes["health"].latest
    assert latest["/root"]["checkpoint_lag"] is None  # root anchors to nothing
    lag = latest["/root/fast"]["checkpoint_lag"]
    assert isinstance(lag, int) and lag >= 0
    assert "health./root.checkpoint_lag" not in probed_system.sim.metrics.series


def test_probe_stop_halts_sampling(probed_system):
    probe = probed_system.sim.planes["health"]
    probe.stop()
    before = len(probed_system.sim.metrics.series["health./root.height"].points)
    probed_system.run_for(5)
    after = len(probed_system.sim.metrics.series["health./root.height"].points)
    assert after == before
    probe.start()  # re-arm for any later test using the fixture


def test_standalone_probe_without_installing_tracer():
    system = HierarchicalSystem(seed=29)
    system.start()
    probe = HealthProbe(system, interval=0.5).start()
    system.run_for(4)
    assert probe.latest["/root"]["height"] > 0
    assert system.sim.planes == {}  # sampling needs no plane attached, itself included


def test_crashed_validator_zero_does_not_freeze_a_live_subnet():
    """The sample is the subnet's frontier, not validator 0's head: with
    validator 0 down and the other three committing, ``height`` keeps
    rising and ``min_height`` names the laggard."""
    system = HierarchicalSystem(seed=31)
    system.start()
    planes = enable_telemetry(system, health_interval=1.0, monitors=True)
    sub = system.spawn_subnet(SubnetConfig(name="live", validators=4, block_time=0.5))
    system.run_for(3)
    system.nodes(sub)[0].stop()
    frozen = system.nodes(sub)[0].head().height
    system.run_for(10)

    sample = planes["health"].latest[sub.path]
    assert sample["min_height"] == frozen
    assert sample["height"] >= frozen + 10
    heights = system.sim.metrics.series[f"health.{sub.path}.height"]
    assert heights.points[-1][1] == sample["height"]
    # And the same frontier reaches every postmortem's health ring.
    recent = planes["recorder"].dump(reason="health-check")["health_recent"][-1]
    assert recent[sub.path]["height"] == sample["height"]
    assert recent[sub.path]["min_height"] == frozen
