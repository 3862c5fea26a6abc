"""Adversarial scenario campaign engine.

Declarative fault DSL (:mod:`repro.scenario.faults`), scenario specs
(:mod:`repro.scenario.spec`), the instrumented runner with
verdict classification (:mod:`repro.scenario.runner`), the seeded
campaign grid (:mod:`repro.scenario.campaign`) and the canonical library
(:mod:`repro.scenario.library`).  CLI entry points:
``python -m repro.scenario`` runs campaigns,
``python -m repro.scenario.report`` triages their JSON output.

A topology lists its subnets as ``SubnetConfig`` records; ``SubnetSpec``
is an alias of ``SubnetConfig`` kept for the ledger harness.
"""

# The ledger harness (benchmarks/ledger/workloads.py) still imports this name.
from repro.hierarchy.network import SubnetConfig as SubnetSpec
from repro.scenario.campaign import CampaignRunner
from repro.scenario.errors import ScenarioError
from repro.scenario.faults import (
    ByzantineFault,
    CheckpointWithholdFault,
    ChurnFault,
    CrashFault,
    CrossMsgSpamFault,
    EngineSwapFault,
    EquivocationFault,
    Fault,
    FaultInjector,
    ForgedCheckpointFault,
    LinkDegradeFault,
    PartitionFault,
    ReorgFault,
    Trigger,
    select_validators,
)
from repro.scenario.runner import (
    ProgressWatchdog,
    ScenarioOutcome,
    ScenarioRunner,
)
from repro.scenario.spec import (
    OK_VERDICTS,
    VERDICT_CLEAN,
    VERDICT_EXPECTED,
    VERDICT_STALL,
    VERDICT_UNEXPECTED,
    Expectation,
    PaymentSpec,
    Scenario,
    TopologySpec,
    WorkloadSpec,
)

# NOTE: repro.scenario.library and repro.scenario.report are imported
# lazily by callers — keeping them (and __main__) out of the eager import
# graph avoids runpy double-import warnings for the CLI modules.

__all__ = [
    "ByzantineFault",
    "CampaignRunner",
    "CheckpointWithholdFault",
    "ChurnFault",
    "CrashFault",
    "CrossMsgSpamFault",
    "EngineSwapFault",
    "EquivocationFault",
    "Expectation",
    "Fault",
    "FaultInjector",
    "ForgedCheckpointFault",
    "LinkDegradeFault",
    "OK_VERDICTS",
    "PartitionFault",
    "PaymentSpec",
    "ProgressWatchdog",
    "ReorgFault",
    "Scenario",
    "ScenarioError",
    "ScenarioOutcome",
    "ScenarioRunner",
    "SubnetSpec",
    "TopologySpec",
    "Trigger",
    "VERDICT_CLEAN",
    "VERDICT_EXPECTED",
    "VERDICT_STALL",
    "VERDICT_UNEXPECTED",
    "WorkloadSpec",
    "select_validators",
]
