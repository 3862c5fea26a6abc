"""Scenario specs: topology + workload + fault schedule + expected verdict.

A :class:`Scenario` is declarative and inert — building one touches no
simulator.  The :class:`~repro.scenario.runner.ScenarioRunner` turns it
into a live :class:`~repro.hierarchy.network.HierarchicalSystem`, drives
the workload, injects the fault schedule and classifies the outcome
against the scenario's :class:`Expectation`:

- ``Expectation.safe()`` — no invariant violation and no liveness stall;
- ``Expectation.violates("supply", ...)`` — the named auditors must trip
  (any other auditor tripping is UNEXPECTED); ``tolerate=`` lists
  auditors whose collateral violations are acceptable side effects;
- ``Expectation.degrades("progress:<subnet>")`` — the named SLO must be
  breached (currently: a progress stall on the named subnet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.scenario.errors import ScenarioError
from repro.scenario.faults import Fault
from repro.telemetry.monitor import AUDITORS

VERDICT_CLEAN = "clean"
VERDICT_EXPECTED = "expected-violation"
VERDICT_UNEXPECTED = "unexpected-violation"
VERDICT_STALL = "liveness-stall"

#: Verdicts that do NOT fail a campaign.
OK_VERDICTS = (VERDICT_CLEAN, VERDICT_EXPECTED)


# ----------------------------------------------------------------------
# Expected verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Expectation:
    """What a scenario is supposed to do to the invariant monitors."""

    kind: str = "safe"  # "safe" | "violates" | "degrades"
    auditors: tuple = ()  # for "violates": auditors that MUST trip
    tolerate: tuple = ()  # extra auditors allowed to trip alongside
    slo: Optional[str] = None  # for "degrades": e.g. "progress:/root/s0"

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

    @classmethod
    def degrades(cls, slo: str) -> "Expectation":
        if not slo.startswith("progress:"):
            raise ScenarioError(
                f"unknown SLO {slo!r}; supported: 'progress:<subnet>'"
            )
        return cls(kind="degrades", slo=slo)

    def render(self) -> str:
        if self.kind == "safe":
            return "safe"
        if self.kind == "violates":
            return f"violates({', '.join(self.auditors)})"
        return f"degrades({self.slo})"

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "auditors": list(self.auditors),
            "tolerate": list(self.tolerate),
            "slo": self.slo,
        }


# ----------------------------------------------------------------------
# Topology / workload
# ----------------------------------------------------------------------
@dataclass
class SubnetSpec:
    """One subnet to spawn (a declarative
    :class:`~repro.hierarchy.network.SubnetConfig` subset)."""

    name: str = "s0"
    parent: str = "/root"
    validators: int = 3
    engine: str = "poa"
    block_time: float = 0.25
    checkpoint_period: int = 5
    finality_depth: int = 5

    @property
    def path(self) -> str:
        return f"{self.parent.rstrip('/')}/{self.name}" if self.parent != "/root" \
            else f"/root/{self.name}"


@dataclass
class TopologySpec:
    """The hierarchy to build: rootnet knobs plus subnets to spawn."""

    root_validators: int = 3
    root_engine: str = "poa"
    root_block_time: float = 0.5
    latency: float = 0.02
    loss_rate: float = 0.0
    checkpoint_period: int = 5
    subnets: list = field(default_factory=lambda: [SubnetSpec()])


@dataclass
class PaymentSpec:
    """Open-loop intra-subnet payments on one subnet."""

    subnet: str = "/root/s0"
    rate: float = 4.0
    senders: int = 2
    funds: int = 100_000


@dataclass
class CrossNetSpec:
    """Open-loop cross-net transfers between two subnets."""

    from_subnet: str = "/root/s0"
    to_subnet: str = "/root"
    rate: float = 1.0
    funds: int = 100_000


@dataclass
class WorkloadSpec:
    """The traffic a scenario runs under its fault schedule."""

    payments: list = field(default_factory=list)  # list[PaymentSpec]
    crossnet: list = field(default_factory=list)  # list[CrossNetSpec]


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
    seed: int = 1
    stall_after: float = 10.0  # progress-watchdog threshold (sim-seconds)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario needs a name")
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ScenarioError(f"not a Fault: {fault!r}")
        known = {"/root"} | {spec.path for spec in self.topology.subnets}
        for fault in self.faults:
            subnet = getattr(fault, "subnet", None)
            if subnet is not None and subnet not in known:
                raise ScenarioError(
                    f"fault {fault.KIND} targets unknown subnet {subnet!r}; "
                    f"topology has {sorted(known)}"
                )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "duration": self.duration,
            "expect": self.expect.as_dict(),
            "subnets": [vars(spec) for spec in self.topology.subnets],
            "faults": [fault.describe() for fault in self.faults],
        }
