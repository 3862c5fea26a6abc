"""Adversarial scenario campaign engine.

Declarative fault DSL (:mod:`repro.scenario.faults`), scenario specs
(:mod:`repro.scenario.spec`), the instrumented runner with
verdict classification (:mod:`repro.scenario.runner`), the seeded
campaign grid (:mod:`repro.scenario.campaign`) and the canonical library
(:mod:`repro.scenario.library`).  CLI entry points:
``python -m repro.scenario`` runs campaigns,
``python -m repro.scenario.report`` triages their JSON output.
"""

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
    run_scenario,
)
from repro.scenario.spec import (
    OK_VERDICTS,
    VERDICT_CLEAN,
    VERDICT_EXPECTED,
    VERDICT_STALL,
    VERDICT_UNEXPECTED,
    CrossNetSpec,
    Expectation,
    PaymentSpec,
    Scenario,
    SubnetSpec,
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
    "CrossNetSpec",
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
    "run_scenario",
    "select_validators",
]
