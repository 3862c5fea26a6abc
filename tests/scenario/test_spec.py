"""Unit tests for scenario specs: expectations, validation, TOML loading."""

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
    loads_toml,
    scenario_from_dict,
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


def test_expectation_parse_round_trip():
    for expectation in (
        Expectation.safe(),
        Expectation.violates("supply"),
        Expectation.violates("supply", "finality"),
        Expectation.degrades("progress:/root/s0"),
    ):
        assert Expectation.parse(expectation.render()) == expectation


def test_expectation_parse_keeps_tolerate():
    parsed = Expectation.parse("violates(supply)", tolerate=("checkpoint-chain",))
    assert parsed.tolerate == ("checkpoint-chain",)


@pytest.mark.parametrize(
    "bad",
    ["", "violates()", "degrades(a, b)", "degrades(latency:/root)", "maybe-safe"],
)
def test_expectation_parse_rejects(bad):
    with pytest.raises(ScenarioError):
        Expectation.parse(bad)


def test_expectation_violates_needs_an_auditor():
    with pytest.raises(ScenarioError):
        Expectation.violates()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Expectation.violates("suply"),
        lambda: Expectation.violates("supply", tolerate=("fnality",)),
        lambda: Expectation.parse("violates(supply, fnality)"),
        lambda: Expectation(kind="violates", auditors=["supply"], tolerate=["fnality"]),
        lambda: scenario_from_dict(
            {"scenario": {"name": "doc", "expect": "violates(supply)", "tolerate": ["fnality"]}}
        ),
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

    assert len([library.get(name)() for name in library.names()]) == 14


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


# ----------------------------------------------------------------------
# Dict / TOML loading
# ----------------------------------------------------------------------
def _document():
    return {
        "scenario": {
            "name": "doc",
            "description": "from a document",
            "duration": 12.0,
            "expect": "violates(supply)",
            "tolerate": ["checkpoint-chain"],
        },
        "topology": {
            "root_validators": 3,
            "subnets": [{"name": "s0", "validators": 4, "engine": "tendermint"}],
        },
        "workload": {
            "payments": [{"subnet": "/root/s0", "rate": 2.0}],
            "crossnet": [{"from_subnet": "/root/s0", "to_subnet": "/root"}],
        },
        "faults": [
            {"kind": "partition", "at": 4.0, "duration": 8.0, "subnet": "/root/s0"},
        ],
    }


def test_scenario_from_dict_builds_everything():
    scenario = scenario_from_dict(_document())
    assert scenario.name == "doc"
    assert scenario.duration == 12.0
    assert scenario.expect == Expectation.violates(
        "supply", tolerate=("checkpoint-chain",)
    )
    assert scenario.topology.subnets[0].engine == "tendermint"
    assert scenario.workload.payments[0].rate == 2.0
    assert scenario.workload.crossnet[0].to_subnet == "/root"
    assert isinstance(scenario.faults[0], PartitionFault)
    assert scenario.faults[0].trigger.duration == 8.0


def test_scenario_from_dict_defaults_to_safe_single_subnet():
    scenario = scenario_from_dict({"scenario": {"name": "bare"}})
    assert scenario.expect == Expectation.safe()
    assert [spec.path for spec in scenario.topology.subnets] == ["/root/s0"]


def test_scenario_from_dict_rejects_unknown_sections_and_keys():
    document = _document()
    document["extras"] = {}
    with pytest.raises(ScenarioError):
        scenario_from_dict(document)

    document = _document()
    document["workload"]["bulk"] = []
    with pytest.raises(ScenarioError):
        scenario_from_dict(document)

    document = _document()
    document["scenario"]["tempo"] = 3
    with pytest.raises(ScenarioError):
        scenario_from_dict(document)


def test_loads_toml_scenario():
    pytest.importorskip("tomllib")
    scenario = loads_toml(
        """
        [scenario]
        name = "toml-case"
        duration = 15.0
        expect = "safe"

        [topology]
        root_validators = 3

        [[topology.subnets]]
        name = "s0"
        validators = 3

        [[workload.payments]]
        subnet = "/root/s0"
        rate = 4.0

        [[faults]]
        kind = "link-degrade"
        at = 3.0
        duration = 5.0
        subnet = "/root/s0"
        loss = 0.1
        """
    )
    assert scenario.name == "toml-case"
    assert scenario.faults[0].KIND == "link-degrade"
    assert scenario.faults[0].loss == 0.1
