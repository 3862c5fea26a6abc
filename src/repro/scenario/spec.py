"""Scenario specs: topology + workload + fault schedule + expected verdict.

A :class:`Scenario` is declarative and inert — building one touches no
simulator, and :meth:`Scenario.as_dict` is all of it as JSON-ready data.
The :class:`~repro.scenario.runner.ScenarioRunner` turns it into a live
:class:`~repro.hierarchy.network.HierarchicalSystem`, drives the
workload, injects the fault schedule and classifies the outcome against
the scenario's :class:`Expectation`:

- ``Expectation.safe()`` — no invariant violation and no liveness stall;
- ``Expectation.violates("supply", ...)`` — the named auditors must trip
  (any other auditor tripping is UNEXPECTED); ``tolerate=`` lists
  auditors whose collateral violations are acceptable side effects.

Either way a liveness stall fails the run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.hierarchy.network import SubnetConfig
from repro.scenario.errors import ScenarioError
from repro.scenario.faults import Fault
from repro.telemetry.monitor import AUDITORS

VERDICT_CLEAN = "clean"
VERDICT_EXPECTED = "expected-violation"
VERDICT_UNEXPECTED = "unexpected-violation"
VERDICT_STALL = "liveness-stall"

#: What :meth:`Scenario.as_dict` records of each subnet, besides its path.
SUBNET_KEYS = ("validators", "engine", "block_time", "checkpoint_period", "finality_depth")

#: Verdicts that do NOT fail a campaign.
OK_VERDICTS = (VERDICT_CLEAN, VERDICT_EXPECTED)


# ----------------------------------------------------------------------
# Expected verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expectation:
    """What a scenario is supposed to do to the invariant monitors."""

    kind: str = "safe"  # "safe" | "violates"
    auditors: tuple = ()  # for "violates": auditors that MUST trip
    tolerate: tuple = ()  # extra auditors allowed to trip alongside

    def __post_init__(self) -> None:
        # A name no armed auditor answers to can never trip, so an expectation
        # carrying one does not mean what it says.
        known = [auditor.name for auditor in AUDITORS]
        unknown = sorted((set(self.auditors) | set(self.tolerate)) - set(known))
        if unknown:
            raise ScenarioError(
                f"unknown auditor(s) {', '.join(unknown)}; known: {', '.join(known)}"
            )

    @classmethod
    def safe(cls) -> "Expectation":
        return cls(kind="safe")

    @classmethod
    def violates(cls, *auditors, tolerate=()) -> "Expectation":
        if not auditors:
            raise ScenarioError("violates() needs at least one auditor name")
        return cls(kind="violates", auditors=tuple(auditors), tolerate=tuple(tolerate))

    def render(self) -> str:
        if self.kind == "safe":
            return "safe"
        return f"violates({', '.join(self.auditors)})"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "auditors": list(self.auditors),
            "tolerate": list(self.tolerate),
        }


# ----------------------------------------------------------------------
# Topology / workload
# ----------------------------------------------------------------------
def scenario_subnet(**overrides) -> SubnetConfig:
    """The subnet a scenario spawns unless it says otherwise: a
    :class:`SubnetConfig` on the scenario defaults, with *overrides*."""
    defaults = {"name": "s0", "validators": 3, "block_time": 0.25, "checkpoint_period": 5}
    return SubnetConfig(**{**defaults, **overrides})


@dataclass
class TopologySpec:
    """The hierarchy to build: rootnet knobs plus subnets to spawn."""

    root_validators: int = 3
    root_block_time: float = 0.5
    checkpoint_period: int = 5
    subnets: list = field(default_factory=lambda: [scenario_subnet()])  # list[SubnetConfig]


@dataclass
class PaymentSpec:
    """Open-loop intra-subnet payments on one subnet."""

    subnet: str = "/root/s0"
    rate: float = 4.0
    senders: int = 2
    funds: int = 100_000


@dataclass
class WorkloadSpec:
    """The traffic a scenario runs under its fault schedule."""

    payments: list = field(default_factory=list)  # list[PaymentSpec]


# ----------------------------------------------------------------------
# The scenario
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A complete, runnable adversarial scenario."""

    name: str
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: list = field(default_factory=list)  # list[Fault]
    duration: float = 30.0  # sim-seconds of fault campaign after setup
    expect: Expectation = field(default_factory=Expectation.safe)
    stall_after: float = 10.0  # progress-watchdog threshold (sim-seconds)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        known = {"/root"} | {config.subnet.path for config in self.topology.subnets}
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ScenarioError(f"not a Fault: {fault!r}")
            if fault.subnet not in known:
                raise ScenarioError(
                    f"fault {fault.KIND} targets unknown subnet {fault.subnet!r}; "
                    f"topology has {sorted(known)}"
                )

    def as_dict(self) -> dict:
        topology = self.topology
        return {
            "name": self.name,
            "description": self.description,
            "duration": self.duration,
            "stall_after": self.stall_after,
            "expect": self.expect.as_dict(),
            "root": {
                "validators": topology.root_validators,
                "block_time": topology.root_block_time,
                "checkpoint_period": topology.checkpoint_period,
            },
            "subnets": [
                {"name": config.name, "parent": config.subnet.parent().path,
                 **{key: getattr(config, key) for key in SUBNET_KEYS}}
                for config in topology.subnets
            ],
            "payments": [asdict(payment) for payment in self.workload.payments],
            "faults": [fault.describe() for fault in self.faults],
        }
