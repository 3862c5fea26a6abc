"""Run one scenario: build, load, inject, watch, classify.

:class:`ScenarioRunner` turns a declarative
:class:`~repro.scenario.spec.Scenario` into a live
:class:`~repro.hierarchy.network.HierarchicalSystem` with every telemetry
plane attached (invariant monitors, flight recorder, a 1 Hz health
probe), drives the workload, arms the fault schedule through a
:class:`~repro.scenario.faults.FaultInjector`, and classifies the outcome:

- ``clean`` — no invariant violation, no liveness stall;
- ``expected-violation`` — exactly the expected auditors (plus tolerated
  side effects) tripped;
- ``unexpected-violation`` — an unexpected auditor tripped, or an
  expected one never fired;
- ``liveness-stall`` — the :class:`ProgressWatchdog` saw a subnet's
  frontier stop advancing for ``stall_after`` simulated seconds.

Anything not ``clean``/``expected-violation`` dumps a postmortem bundle
tagged with the scenario and verdict, carrying the watchdog's stall
reports, so triage starts from evidence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.hierarchy import HierarchicalSystem
from repro.scenario.faults import FaultInjector
from repro.scenario.spec import (
    OK_VERDICTS,
    VERDICT_CLEAN,
    VERDICT_EXPECTED,
    VERDICT_STALL,
    VERDICT_UNEXPECTED,
    Scenario,
)
from repro.sim.observe import HealthSampled, Plane
from repro.telemetry import enable_telemetry
from repro.workloads import PaymentWorkload

SPAM_FUNDS = 10**9
#: Simulated seconds spawning a subnet or funding a wallet may take.
SETUP_TIMEOUT = 240.0


class ProgressWatchdog(Plane):
    """Liveness oracle: flags subnets whose frontier stops advancing.

    Reads the health probe's rounds (:class:`~repro.sim.observe.HealthSampled`),
    whose ``height`` is the best head across a subnet's validators, so a
    single crashed or partitioned laggard is not a stall — the subnet as a
    whole must stop.  A stall is recorded once per stagnation episode;
    progress re-arms the watchdog.  It watches from attach to detach, and
    adds no section to the run document.
    """

    section = "watchdog"
    observes = {HealthSampled: "on_health"}

    def __init__(self, sim, stall_after: float = 10.0) -> None:
        self.sim = sim
        self.stall_after = stall_after
        self.stalls: list[dict] = []
        self._last: dict[str, tuple] = {}  # path -> (height, since)
        self._flagged: set[str] = set()

    def stalled_subnets(self) -> list:
        return sorted({stall["subnet"] for stall in self.stalls})

    def on_health(self, record: HealthSampled) -> None:
        for path, sample in record.latest.items():
            height, now = sample["height"], sample["time"]
            previous = self._last.get(path)
            if previous is None or height > previous[0]:
                self._last[path] = (height, now)
                self._flagged.discard(path)
                continue
            since = previous[1]
            if now - since >= self.stall_after and path not in self._flagged:
                self._flagged.add(path)
                stall = {"subnet": path, "height": height, "since": since, "time": now}
                diagnoser = self.sim.planes.get("stall")
                if diagnoser is not None:
                    # Diagnose at flag time, while the wedged round state
                    # is live — by classification time the fault may have
                    # healed and the books moved on.  Pure read: the
                    # report cannot perturb the run.
                    stall["report"] = diagnoser.diagnose(path)
                self.stalls.append(stall)


@dataclass
class ScenarioOutcome:
    """One scenario run, classified."""

    scenario: str
    seed: int
    verdict: str
    expected: str
    notes: list = field(default_factory=list)
    violations: list = field(default_factory=list)  # InvariantViolation dicts
    tripped: list = field(default_factory=list)  # auditor names that fired
    stalls: list = field(default_factory=list)
    fault_log: list = field(default_factory=list)
    heights: dict = field(default_factory=dict)
    bundles: list = field(default_factory=list)  # postmortem paths
    sim: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in OK_VERDICTS

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


class ScenarioRunner:
    """Builds and runs one scenario under full instrumentation."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        postmortem_dir: Optional[str] = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.postmortem_dir = postmortem_dir
        self.system: Optional[HierarchicalSystem] = None
        self.workloads: list = []
        self.injector: Optional[FaultInjector] = None
        self.watchdog: Optional[ProgressWatchdog] = None

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> HierarchicalSystem:
        """Construct the system, spawn the topology, fund the workload."""
        spec = self.scenario.topology
        system = HierarchicalSystem(
            seed=self.seed,
            root_validators=spec.root_validators,
            root_block_time=spec.root_block_time,
            checkpoint_period=spec.checkpoint_period,
        ).start()
        enable_telemetry(
            system, monitors=True, postmortem_dir=self.postmortem_dir,
            health_interval=1.0,
        )
        system.spawn_subnets(spec.subnets, timeout=SETUP_TIMEOUT)
        self.system = system
        self._fund_workloads()
        return system

    def _fund_workloads(self) -> None:
        system = self.system
        for payment in self.scenario.workload.payments:
            wallets = [
                system.wallets.get(name) or system.create_wallet(name)
                for name in (
                    f"pay-{payment.subnet}-{i}" for i in range(payment.senders)
                )
            ]
            system.ensure_funds(
                payment.subnet,
                [(wallet.address, payment.funds) for wallet in wallets],
                timeout=SETUP_TIMEOUT,
            )
        for fault in self.scenario.faults:
            if fault.KIND == "crossmsg-spam":
                name = f"spam-{fault.subnet}"
                wallet = system.wallets.get(name) or system.create_wallet(name)
                system.ensure_funds(
                    fault.subnet,
                    [(wallet.address, SPAM_FUNDS)],
                    timeout=SETUP_TIMEOUT,
                )

    def _start_workloads(self) -> None:
        system = self.system
        for payment in self.scenario.workload.payments:
            wallets = [
                system.wallets[f"pay-{payment.subnet}-{i}"]
                for i in range(payment.senders)
            ]
            self.workloads.append(
                PaymentWorkload(
                    system.sim,
                    system.nodes(payment.subnet),
                    wallets,
                    rate=payment.rate,
                    rng_scope=f"scenario-{self.scenario.name}-{payment.subnet}",
                ).start()
            )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> ScenarioOutcome:
        scenario = self.scenario
        if self.system is None:
            self.build()
        system = self.system
        self._start_workloads()
        self.watchdog = system.sim.attach(
            ProgressWatchdog(system.sim, stall_after=scenario.stall_after)
        )
        self.injector = FaultInjector(system, scenario.faults).arm()
        system.run_for(scenario.duration)
        for workload in self.workloads:
            workload.stop()
        self.injector.disarm()
        system.sim.detach(self.watchdog)
        return self._classify()

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self) -> ScenarioOutcome:
        scenario = self.scenario
        system = self.system
        violations = list(system.sim.planes["invariants"].violations)
        tripped = sorted({violation.auditor for violation in violations})
        stalls = list(self.watchdog.stalls)
        expect = scenario.expect

        notes: list[str] = []
        if expect.kind == "safe":
            if tripped:
                notes.append(f"safe scenario tripped auditors: {', '.join(tripped)}")
        else:
            extra = sorted(set(tripped) - set(expect.auditors) - set(expect.tolerate))
            missing = sorted(set(expect.auditors) - set(tripped))
            if extra:
                notes.append(f"unexpected auditors tripped: {', '.join(extra)}")
            if missing:
                notes.append(f"expected violation never fired: {', '.join(missing)}")
        if notes:
            verdict = VERDICT_UNEXPECTED
        elif stalls:
            verdict = VERDICT_STALL
            notes.append(
                "progress stalled on " + ", ".join(self.watchdog.stalled_subnets())
            )
        elif expect.kind == "safe":
            verdict = VERDICT_CLEAN
        else:
            verdict = VERDICT_EXPECTED
            notes.append(f"tripped as expected: {', '.join(tripped)}")

        recorder = system.sim.planes["recorder"]
        if verdict not in OK_VERDICTS:
            recorder.dump(
                reason=f"scenario:{scenario.name}:{verdict}",
                stall_reports=[
                    stall["report"] for stall in stalls if stall.get("report")
                ],
            )

        return ScenarioOutcome(
            scenario=scenario.name,
            seed=self.seed,
            verdict=verdict,
            expected=expect.render(),
            notes=notes,
            violations=[violation.as_dict() for violation in violations],
            tripped=tripped,
            stalls=stalls,
            fault_log=list(self.injector.log),
            heights={
                subnet.path: system.node(subnet).head().height
                for subnet in system.subnets
            },
            bundles=list(recorder.paths),
            sim={
                "now": system.sim.now,
                "seed": system.sim.seed,
                "events_executed": system.sim.events_executed,
            },
        )
