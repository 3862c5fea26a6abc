"""HealthProbe: periodic per-subnet vitals, one round per interval."""

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.sim.observe import HealthSampled, Plane
from repro.telemetry import enable_telemetry
from repro.telemetry.health import HealthProbe

FIELDS = ("height", "min_height", "mempool", "pending_crossmsgs", "checkpoint_lag", "time")


class Rounds(Plane):
    """Every round the probe reports, in order."""

    section = "health_rounds"
    observes = {HealthSampled: "on_round"}

    def __init__(self):
        self.rounds = []

    def on_round(self, sampled):
        self.rounds.append(sampled.latest)


@pytest.fixture(scope="module")
def probed_system():
    system = HierarchicalSystem(seed=23)
    system.start()
    system.sim.attach(Rounds())
    enable_telemetry(system, health_interval=1.0)
    system.spawn_subnet(SubnetConfig(name="fast", validators=3, block_time=0.5))
    system.run_for(15)
    return system


def _heights(system, path):
    """(time, height) of *path* in every round that sampled it."""
    rounds = system.sim.planes["health_rounds"].rounds
    return [(r[path]["time"], r[path]["height"]) for r in rounds if path in r]


def test_probe_samples_every_subnet(probed_system):
    latest = probed_system.sim.planes["health"].latest
    assert set(latest) == {"/root", "/root/fast"}
    for sample in latest.values():
        assert set(FIELDS) <= set(sample)


def test_probe_reports_one_round_per_interval(probed_system):
    heights = _heights(probed_system, "/root/fast")
    assert len(heights) >= 10  # one per second of simulated time
    times = [t for t, _ in heights]
    assert times == sorted(set(times))
    # Chains advance: height samples are non-decreasing and end positive.
    values = [v for _, v in heights]
    assert values == sorted(values)
    assert values[-1] > 0
    assert heights[-1] == (
        probed_system.sim.planes["health"].latest["/root/fast"]["time"], values[-1]
    )


def test_checkpoint_lag_semantics(probed_system):
    latest = probed_system.sim.planes["health"].latest
    assert latest["/root"]["checkpoint_lag"] is None  # root anchors to nothing
    lag = latest["/root/fast"]["checkpoint_lag"]
    assert isinstance(lag, int) and lag >= 0


def test_probe_stop_halts_sampling(probed_system):
    probe = probed_system.sim.planes["health"]
    probe.stop()
    before = len(_heights(probed_system, "/root"))
    probed_system.run_for(5)
    after = len(_heights(probed_system, "/root"))
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
    assert system.sim.planes["health"].summary()[sub.path]["height"] == sample["height"]
    # And the same frontier reaches every postmortem's health ring.
    recent = planes["recorder"].dump(reason="health-check")["recorder"]["health_ring"][-1]
    assert recent[sub.path]["height"] == sample["height"]
    assert recent[sub.path]["min_height"] == frozen


def test_the_frontier_is_the_best_head_not_the_laggard():
    """``height`` is what the scenario watchdog reads: with one validator
    down and the other three committing, it keeps rising, the frozen
    laggard shows up only in ``min_height``, and no stall is flagged."""
    from repro.scenario.runner import ProgressWatchdog

    system = HierarchicalSystem(seed=37)
    system.start()
    planes = enable_telemetry(system, health_interval=1.0)
    sub = system.spawn_subnet(SubnetConfig(name="lag", validators=4, block_time=0.5))
    system.run_for(2)
    laggard = system.nodes(sub)[3]
    laggard.stop()
    watchdog = system.sim.attach(ProgressWatchdog(system.sim, stall_after=3.0))
    system.run_for(12)

    sample = planes["health"].latest[sub.path]
    assert sample["min_height"] == laggard.head().height < sample["height"]
    assert watchdog.stalls == []
