"""Runner tests: the progress watchdog, digest neutrality, and the
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
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------------
# Watchdog (stub system, real simulator)
# ----------------------------------------------------------------------
class _StubSubnet:
    def __init__(self, path):
        self.path = path


class _StubHead:
    def __init__(self, owner):
        self._owner = owner

    @property
    def height(self):
        return self._owner.height


class _StubNode:
    def __init__(self, owner):
        self._head = _StubHead(owner)

    def head(self):
        return self._head


class _StubChain:
    def __init__(self, sim, path):
        self.sim = sim
        self.height = 0
        self.subnet = _StubSubnet(path)
        self.node = _StubNode(self)


def _watchdog_rig(stall_after=3.0):
    sim = Simulator(seed=1)
    chain = _StubChain(sim, "/root/s0")

    class System:
        pass

    system = System()
    system.sim = sim
    system.subnets = [chain.subnet]
    system.nodes_by_subnet = {chain.subnet: [chain.node]}
    watchdog = ProgressWatchdog(system, stall_after=stall_after)
    return sim, chain, watchdog


def test_watchdog_flags_one_stall_per_episode_and_rearms():
    sim, chain, watchdog = _watchdog_rig(stall_after=3.0)
    watchdog.start()
    # Progress until t=4, then freeze until t=10, resume, freeze again.
    stop_growth = sim.every(1.0, lambda: setattr(chain, "height", chain.height + 1))
    sim.run_until(4.0)
    stop_growth()
    sim.run_until(10.0)
    assert len(watchdog.stalls) == 1  # one episode, flagged once
    assert watchdog.stalled_subnets() == ["/root/s0"]

    chain.height += 1  # progress re-arms the watchdog
    sim.run_until(16.0)
    assert len(watchdog.stalls) == 2  # second episode flagged again
    watchdog.stop()
    final = len(watchdog.stalls)
    sim.run_until(30.0)
    assert len(watchdog.stalls) == final  # stopped watchdog stays quiet


def test_watchdog_tracks_the_best_head_not_the_laggard():
    sim, chain, watchdog = _watchdog_rig(stall_after=3.0)
    laggard = _StubChain(sim, "/root/s0")  # height pinned at 0
    subnet = chain.subnet
    watchdog.system.nodes_by_subnet[subnet] = [chain.node, laggard.node]
    watchdog.start()
    sim.every(1.0, lambda: setattr(chain, "height", chain.height + 1))
    sim.run_until(12.0)
    assert watchdog.stalls == []  # one healthy head is enough


# ----------------------------------------------------------------------
# Digest neutrality of the instrumentation
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


def test_monitoring_is_digest_neutral():
    """The monitors, recorder and watchdog observe the run without
    perturbing it: with and without them, the end state digest matches."""

    def digest(monitors):
        runner = ScenarioRunner(_tiny_scenario(), seed=5, monitors=monitors)
        outcome = runner.run()
        assert outcome.verdict == "clean"
        return runner.system.end_state_digest()

    assert digest(monitors=True) == digest(monitors=False)


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


def test_degrades_expectation_matches_stall():
    """A permanent full-subnet crash is a declared degradation: the
    watchdog's stall satisfies the SLO expectation instead of failing."""
    scenario = _tiny_scenario(
        name="declared-stall",
        faults=[CrashFault(Trigger(at=2.0), "/root/s0", select="all")],
        duration=16.0,
        expect=Expectation.degrades("progress:/root/s0"),
    )
    outcome = ScenarioRunner(scenario, seed=13).run()
    assert outcome.verdict == "expected-violation"
    assert outcome.ok
    assert outcome.stalls
