"""Unit tests for scenario specs: expectations and validation."""

import json

import pytest

from repro.hierarchy import SubnetConfig
from repro.scenario import library
from repro.scenario.errors import ScenarioError
from repro.scenario.faults import CrashFault, PartitionFault, Trigger
from repro.scenario.spec import (
    Expectation,
    PaymentSpec,
    Scenario,
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


def test_expectation_violates_needs_an_auditor():
    with pytest.raises(ScenarioError):
        Expectation.violates()


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
    assert len([library.get(name)() for name in library.names()]) == 15


# ----------------------------------------------------------------------
# Scenario validation
# ----------------------------------------------------------------------
def _scenario(**overrides):
    defaults = dict(
        name="unit",
        topology=TopologySpec(),
        workload=WorkloadSpec(payments=[PaymentSpec(subnet="/root/s0")]),
        faults=[],
        duration=10.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def test_subnet_config_path_derivation():
    assert SubnetConfig(name="s0").subnet.path == "/root/s0"
    assert SubnetConfig(name="deep", parent="/root/s0").subnet.path == "/root/s0/deep"


def test_default_topology_is_the_scenario_subnet():
    (subnet,) = TopologySpec().subnets
    assert (subnet.subnet.path, subnet.validators, subnet.block_time,
            subnet.checkpoint_period) == ("/root/s0", 3, 0.25, 5)
    assert _scenario().as_dict()["subnets"] == [{
        "name": "s0", "parent": "/root", "validators": 3, "engine": "poa",
        "block_time": 0.25, "checkpoint_period": 5, "finality_depth": 5,
    }]


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


@pytest.mark.parametrize("overrides", [
    {"topology": TopologySpec(root_validators=4)},
    {"topology": TopologySpec(root_block_time=1.0)},
    {"topology": TopologySpec(checkpoint_period=10)},
    {"workload": WorkloadSpec(payments=[PaymentSpec(subnet="/root/s0", rate=8.0)])},
    {"stall_after": 20.0},
], ids=["root_validators", "root_block_time", "checkpoint_period", "payments", "stall_after"])
def test_as_dict_records_every_field_a_run_reads(overrides):
    """Two scenarios that differ in one field print differently."""
    assert _scenario(**overrides).as_dict() != _scenario().as_dict()


@pytest.mark.parametrize("factory", library.CANONICAL, ids=lambda factory: factory().name)
def test_library_scenario_is_plain_data(factory):
    """A whole scenario, fault schedule included, is JSON data: it prints
    and reads back unchanged, with no placeholder for a value JSON lacks."""
    as_dict = factory().as_dict()
    text = json.dumps(as_dict)
    assert json.loads(text) == as_dict
    assert "<" not in text
