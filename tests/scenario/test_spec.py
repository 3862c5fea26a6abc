"""Unit tests for scenario specs: expectations and validation."""

import pytest

from repro.scenario.errors import ScenarioError
from repro.scenario.faults import CrashFault, PartitionFault, Trigger
from repro.scenario.spec import (
    Expectation,
    PaymentSpec,
    Scenario,
    SubnetSpec,
    TopologySpec,
    WorkloadSpec,
)


# ----------------------------------------------------------------------
# Expectations
# ----------------------------------------------------------------------
def test_expectation_constructors_and_render():
    assert Expectation.safe().render() == "safe"
    violates = Expectation.violates("supply", "finality", tolerate=("membership",))
    assert violates.auditors == ("supply", "finality")
    assert violates.tolerate == ("membership",)
    assert violates.render() == "violates(supply, finality)"
    degrades = Expectation.degrades("progress:/root/s0")
    assert degrades.render() == "degrades(progress:/root/s0)"


def test_expectation_violates_needs_an_auditor():
    with pytest.raises(ScenarioError):
        Expectation.violates()


def test_expectation_degrades_refuses_an_unknown_slo():
    with pytest.raises(ScenarioError):
        Expectation.degrades("latency:/root")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Expectation.violates("suply"),
        lambda: Expectation.violates("supply", tolerate=("fnality",)),
        lambda: Expectation(kind="violates", auditors=["supply"], tolerate=["fnality"]),
    ],
)
def test_expectation_refuses_an_auditor_no_monitor_arms(build):
    with pytest.raises(ScenarioError) as refused:
        build()
    assert "known: supply, checkpoint-chain, exactly-once, finality, membership" in str(
        refused.value
    )


def test_every_library_scenario_still_constructs():
    from repro.scenario import library

    assert len([library.get(name)() for name in library.names()]) == 15


# ----------------------------------------------------------------------
# Scenario validation
# ----------------------------------------------------------------------
def _scenario(**overrides):
    defaults = dict(
        name="unit",
        topology=TopologySpec(subnets=[SubnetSpec(name="s0")]),
        workload=WorkloadSpec(payments=[PaymentSpec(subnet="/root/s0")]),
        faults=[],
        duration=10.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_subnet_spec_path_derivation():
    assert SubnetSpec(name="s0").path == "/root/s0"
    assert SubnetSpec(name="deep", parent="/root/s0").path == "/root/s0/deep"


def test_scenario_requires_a_name():
    with pytest.raises(ScenarioError):
        _scenario(name="")


def test_scenario_rejects_non_fault_entries():
    with pytest.raises(ScenarioError):
        _scenario(faults=[{"kind": "partition"}])


def test_scenario_rejects_fault_on_unknown_subnet():
    fault = CrashFault(Trigger(at=1.0), "/root/elsewhere")
    with pytest.raises(ScenarioError) as excinfo:
        _scenario(faults=[fault])
    assert "/root/elsewhere" in str(excinfo.value)


def test_scenario_accepts_faults_on_root_and_declared_subnets():
    scenario = _scenario(
        faults=[
            PartitionFault(Trigger(at=1.0, duration=2.0), "/root/s0"),
            CrashFault(Trigger(at=1.0, duration=2.0), "/root", select=[1]),
        ]
    )
    as_dict = scenario.as_dict()
    assert as_dict["name"] == "unit"
    assert [fault["kind"] for fault in as_dict["faults"]] == ["partition", "crash"]
    assert as_dict["expect"]["kind"] == "safe"
