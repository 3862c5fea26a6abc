"""Run one scenario: build, load, inject, watch, classify.

:class:`ScenarioRunner` turns a declarative
:class:`~repro.scenario.spec.Scenario` into a live
:class:`~repro.hierarchy.network.HierarchicalSystem` with invariant
monitors and the flight recorder armed, drives the workload, arms the
fault schedule through a :class:`~repro.scenario.faults.FaultInjector`,
and classifies the outcome:

- ``clean`` — no invariant violation, no liveness stall;
- ``expected-violation`` — exactly the expected auditors (plus tolerated
  side effects) tripped, or the expected SLO degraded;
- ``unexpected-violation`` — an unexpected auditor tripped, or an
  expected one never fired;
- ``liveness-stall`` — the :class:`ProgressWatchdog` saw a subnet's head
  stop advancing for ``stall_after`` simulated seconds (and the scenario
  didn't declare that degradation).

Anything not ``clean``/``expected-violation`` dumps a postmortem bundle
tagged with the scenario and verdict, carrying the watchdog's stall
reports, so triage starts from evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.scenario.faults import FaultInjector
from repro.scenario.spec import (
    OK_VERDICTS,
    VERDICT_CLEAN,
    VERDICT_EXPECTED,
    VERDICT_STALL,
    VERDICT_UNEXPECTED,
    Scenario,
)
from repro.telemetry import enable_telemetry
from repro.workloads import PaymentWorkload

SPAM_FUNDS = 10**9
#: Simulated seconds spawning a subnet or funding a wallet may take.
SETUP_TIMEOUT = 240.0
#: Simulated seconds between two samples of the watchdog.
WATCHDOG_INTERVAL = 1.0


class ProgressWatchdog:
    """Liveness oracle: flags subnets whose best head stops advancing.

    Samples the *maximum* head height across each subnet's validators
    (so a single crashed or partitioned laggard is not a stall — the
    subnet as a whole must stop).  A stall is recorded once per
    stagnation episode; progress re-arms the watchdog.  Read-only and
    RNG-free, hence digest-neutral.
    """

    def __init__(self, system, stall_after: float = 10.0) -> None:
        self.system = system
        self.stall_after = stall_after
        self.stalls: list[dict] = []
        self._last: dict[str, tuple] = {}  # path -> (height, since)
        self._flagged: set[str] = set()
        self._stop = None

    def start(self) -> "ProgressWatchdog":
        if self._stop is None:
            self._stop = self.system.sim.every(
                WATCHDOG_INTERVAL, self._tick, label="scenario:watchdog",
                on_error="log",
            )
        return self

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def stalled_subnets(self) -> list:
        return sorted({stall["subnet"] for stall in self.stalls})

    def _tick(self) -> None:
        now = self.system.sim.now
        for subnet in self.system.subnets:
            path = subnet.path
            height = max(
                node.head().height
                for node in self.system.nodes_by_subnet[subnet]
            )
            previous = self._last.get(path)
            if previous is None or height > previous[0]:
                self._last[path] = (height, now)
                self._flagged.discard(path)
                continue
            since = previous[1]
            if now - since >= self.stall_after and path not in self._flagged:
                self._flagged.add(path)
                stall = {"subnet": path, "height": height, "since": since, "time": now}
                diagnoser = self.system.sim.planes.get("stall")
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
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "verdict": self.verdict,
            "expected": self.expected,
            "ok": self.ok,
            "notes": list(self.notes),
            "tripped": list(self.tripped),
            "violations": list(self.violations),
            "stalls": list(self.stalls),
            "fault_log": list(self.fault_log),
            "heights": dict(self.heights),
            "bundles": list(self.bundles),
            "sim": dict(self.sim),
        }


class ScenarioRunner:
    """Builds and runs one scenario under full instrumentation."""

    def __init__(
        self,
        scenario: Scenario,
        seed: Optional[int] = None,
        postmortem_dir: Optional[str] = None,
        monitors: bool = True,
    ) -> None:
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.postmortem_dir = postmortem_dir
        self.monitors = monitors
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
            latency=spec.latency,
            loss_rate=spec.loss_rate,
            root_validators=spec.root_validators,
            root_engine=spec.root_engine,
            root_block_time=spec.root_block_time,
            checkpoint_period=spec.checkpoint_period,
        ).start()
        if self.monitors:
            enable_telemetry(
                system, monitors=True, postmortem_dir=self.postmortem_dir,
                health_interval=1.0,
            )
        for subnet in spec.subnets:
            system.spawn_subnet(
                SubnetConfig(
                    name=subnet.name,
                    parent=subnet.parent,
                    validators=subnet.validators,
                    engine=subnet.engine,
                    block_time=subnet.block_time,
                    checkpoint_period=subnet.checkpoint_period,
                    finality_depth=subnet.finality_depth,
                ),
                timeout=SETUP_TIMEOUT,
            )
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
        self.watchdog = ProgressWatchdog(
            system, stall_after=scenario.stall_after
        ).start()
        self.injector = FaultInjector(system, scenario.faults).arm()
        system.run_for(scenario.duration)
        for workload in self.workloads:
            workload.stop()
        self.injector.disarm()
        self.watchdog.stop()
        return self._classify()

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self) -> ScenarioOutcome:
        scenario = self.scenario
        system = self.system
        monitor = system.sim.planes.get("invariants")
        violations = list(monitor.violations) if monitor is not None else []
        tripped = sorted({violation.auditor for violation in violations})
        stalls = list(self.watchdog.stalls)
        expect = scenario.expect

        notes: list[str] = []
        verdict = VERDICT_CLEAN
        if expect.kind == "safe":
            if tripped:
                verdict = VERDICT_UNEXPECTED
                notes.append(
                    f"safe scenario tripped auditors: {', '.join(tripped)}"
                )
            elif stalls:
                verdict = VERDICT_STALL
                notes.append(
                    "progress stalled on "
                    + ", ".join(self.watchdog.stalled_subnets())
                )
        elif expect.kind == "violates":
            required = set(expect.auditors)
            allowed = required | set(expect.tolerate)
            extra = sorted(set(tripped) - allowed)
            missing = sorted(required - set(tripped))
            if extra:
                verdict = VERDICT_UNEXPECTED
                notes.append(f"unexpected auditors tripped: {', '.join(extra)}")
            if missing:
                verdict = VERDICT_UNEXPECTED
                notes.append(
                    f"expected violation never fired: {', '.join(missing)}"
                )
            if verdict == VERDICT_CLEAN:
                if stalls:
                    verdict = VERDICT_STALL
                    notes.append(
                        "progress stalled on "
                        + ", ".join(self.watchdog.stalled_subnets())
                    )
                else:
                    verdict = VERDICT_EXPECTED
                    notes.append(f"tripped as expected: {', '.join(tripped)}")
        else:  # degrades
            slo_subnet = expect.slo.split(":", 1)[1]
            degraded = slo_subnet in self.watchdog.stalled_subnets()
            if tripped:
                verdict = VERDICT_UNEXPECTED
                notes.append(
                    f"degradation scenario tripped auditors: {', '.join(tripped)}"
                )
            elif not degraded:
                verdict = VERDICT_UNEXPECTED
                notes.append(f"SLO {expect.slo!r} never degraded")
            else:
                verdict = VERDICT_EXPECTED
                notes.append(f"SLO {expect.slo!r} degraded as expected")

        recorder = system.sim.planes.get("recorder")
        if recorder is not None and verdict not in OK_VERDICTS:
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
            bundles=list(recorder.paths) if recorder is not None else [],
            sim={
                "now": system.sim.now,
                "seed": system.sim.seed,
                "events_executed": system.sim.events_executed,
            },
        )
