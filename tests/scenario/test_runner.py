"""Runner tests: the progress watchdog, reproducibility, and the
monitor-vs-attack integration pair from the scenario library."""

import os

from repro.scenario import library
from repro.scenario.faults import CrashFault, Trigger
from repro.scenario.runner import ProgressWatchdog, ScenarioRunner
from repro.scenario.spec import (
    Expectation,
    PaymentSpec,
    Scenario,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.observe import HealthSampled
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------------
# Watchdog (health samples fed through a real simulator's stream)
# ----------------------------------------------------------------------
def _sample(sim, now, height, path="/root/s0"):
    sim.now = now
    sim.observe(HealthSampled, {path: {"height": height, "time": now}})


def test_watchdog_flags_one_stall_per_episode_and_rearms():
    sim = Simulator(seed=1)
    watchdog = sim.attach(ProgressWatchdog(sim, stall_after=3.0))
    # Progress until t=4, then freeze until t=10, resume, freeze again.
    for now in range(1, 5):
        _sample(sim, float(now), now)
    for now in range(5, 11):
        _sample(sim, float(now), 4)
    assert len(watchdog.stalls) == 1  # one episode, flagged once
    assert watchdog.stalls[0]["since"] == 4.0 and watchdog.stalls[0]["time"] == 7.0
    assert watchdog.stalled_subnets() == ["/root/s0"]

    for now in range(11, 17):  # progress at t=11 re-arms the watchdog
        _sample(sim, float(now), 5)
    assert len(watchdog.stalls) == 2  # second episode flagged again
    sim.detach(watchdog)
    for now in range(17, 30):  # a third episode, from t=17 on
        _sample(sim, float(now), 6)
    assert len(watchdog.stalls) == 2  # a detached watchdog stays quiet


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------
def _tiny_scenario(name="tiny", **overrides):
    defaults = dict(
        name=name,
        topology=TopologySpec(),
        workload=WorkloadSpec(
            payments=[PaymentSpec(subnet="/root/s0", rate=2.0, senders=2)]
        ),
        faults=[],
        duration=6.0,
        expect=Expectation.safe(),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_scenario_runs_are_reproducible():
    def run():
        runner = ScenarioRunner(_tiny_scenario(), seed=7)
        outcome = runner.run()
        return runner.system.end_state_digest(), outcome.heights, outcome.sim

    assert run() == run()


# ----------------------------------------------------------------------
# Attack vs honest twin (the library's canonical pair)
# ----------------------------------------------------------------------
def test_checkpoint_withholding_trips_auditor_honest_twin_stays_clean():
    attack = ScenarioRunner(library.checkpoint_withholding(), seed=3).run()
    assert attack.verdict == "expected-violation"
    assert attack.tripped == ["checkpoint-chain"]
    assert attack.ok

    honest = ScenarioRunner(library.baseline_healthy(), seed=3).run()
    assert honest.verdict == "clean"
    assert honest.tripped == []
    assert honest.violations == []


def test_round_desync_scenario_rides_out_the_loss_window():
    """The satellite regression scenario for the Tendermint liveness
    stall: 50% loss for 12s must end clean — no stall, no violation."""
    outcome = ScenarioRunner(library.round_desync(), seed=1).run()
    assert outcome.verdict == "clean"
    assert outcome.ok
    assert outcome.stalls == []


def test_unexpected_violation_dumps_postmortem_bundle(tmp_path):
    """Mislabel an attack as safe: the runner must flag it UNEXPECTED and
    leave postmortem evidence behind."""
    scenario = library.forged_extraction()
    scenario.expect = Expectation.safe()
    outcome = ScenarioRunner(
        scenario, seed=3, postmortem_dir=str(tmp_path)
    ).run()
    assert outcome.verdict == "unexpected-violation"
    assert not outcome.ok
    assert "supply" in outcome.tripped
    assert outcome.bundles, "no postmortem bundle dumped"
    for bundle in outcome.bundles:
        assert os.path.exists(bundle)
    # The scenario-tagged dump (on top of per-violation dumps) is present.
    assert any(
        f"scenario:{scenario.name}" in name
        for name in os.listdir(tmp_path)
    ) or outcome.bundles


def test_fault_log_records_inject_and_heal():
    from repro.scenario.faults import LinkDegradeFault

    scenario = _tiny_scenario(
        faults=[
            LinkDegradeFault(
                Trigger(at=1.0, duration=2.0), "/root/s0", extra_latency=0.05
            )
        ],
        duration=6.0,
    )
    outcome = ScenarioRunner(scenario, seed=11).run()
    events = [(entry["event"], entry["kind"]) for entry in outcome.fault_log]
    assert events == [("inject", "link-degrade"), ("heal", "link-degrade")]
    assert outcome.verdict == "clean"


def test_liveness_stall_bundle_carries_stall_reports(tmp_path, capsys):
    """An undeclared full-subnet stall: the verdict is liveness-stall, and
    the bundle it dumps carries each stall report (the CI artifact shape),
    renderable by the report CLI."""
    import json

    from repro.telemetry.report import main as report_main

    scenario = _tiny_scenario(
        name="wedged",
        faults=[CrashFault(Trigger(at=2.0), "/root/s0", select="all")],
        duration=16.0,
    )
    outcome = ScenarioRunner(
        scenario, seed=13, postmortem_dir=str(tmp_path)
    ).run()
    assert outcome.verdict == "liveness-stall"
    (path,) = outcome.bundles
    with open(path, encoding="utf-8") as handle:
        bundle = json.load(handle)
    assert bundle["extra"]["reason"] == "scenario:wedged:liveness-stall"
    reports = bundle["extra"]["stall_reports"]
    assert [report["subnet"] for report in reports] == ["/root/s0"]
    assert reports == json.loads(json.dumps([stall["report"] for stall in outcome.stalls]))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "stall report: /root/s0" in out
    assert reports[0]["quorum"]["line"] in out
    # The bundle is the stall's one artifact beside the campaign JSON.
    assert os.listdir(tmp_path) == [os.path.basename(path)]
