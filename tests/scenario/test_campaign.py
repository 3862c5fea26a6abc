"""Campaign runner and triage CLI tests."""

import json
import random

import pytest

from repro.scenario import report as report_cli
from repro.scenario.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignRunner,
    _jitter_schedule,
)
from repro.scenario.errors import ScenarioError
from repro.scenario.faults import PartitionFault, Trigger
from repro.scenario.spec import (
    Expectation,
    PaymentSpec,
    Scenario,
    SubnetSpec,
    TopologySpec,
    WorkloadSpec,
)


def _tiny(name="tiny-ok", expect=None, faults=None):
    def factory():
        return Scenario(
            name=name,
            topology=TopologySpec(subnets=[SubnetSpec(name="s0")]),
            workload=WorkloadSpec(
                payments=[PaymentSpec(subnet="/root/s0", rate=2.0, senders=2)]
            ),
            faults=list(faults() if faults else []),
            duration=6.0,
            expect=expect or Expectation.safe(),
        )

    return factory


def test_campaign_runs_grid_and_writes_report(tmp_path):
    lines = []
    runner = CampaignRunner(
        "unit",
        [_tiny()],
        seeds=(1, 2),
        out_dir=str(tmp_path),
        progress=lines.append,
    )
    report = runner.run()
    assert report["schema"] == CAMPAIGN_SCHEMA
    assert report["ok"]
    assert report["summary"] == {"clean": 2}
    assert [run["seed"] for run in report["runs"]] == [1, 2]
    assert lines  # progress callback saw every run
    on_disk = json.loads((tmp_path / "CAMPAIGN_unit.json").read_text())
    assert on_disk["name"] == "unit"
    assert on_disk["runs"] == report["runs"]


def test_campaign_needs_a_name():
    with pytest.raises(ScenarioError):
        CampaignRunner("", [_tiny()])


def test_campaign_rejects_bare_scenarios_on_multi_seed(tmp_path):
    bare = _tiny()()
    runner = CampaignRunner(
        "bare", [bare], seeds=(1, 2), out_dir=str(tmp_path)
    )
    with pytest.raises(ScenarioError):
        runner.run()
    # A single-seed unrandomized campaign may take a bare instance.
    single = CampaignRunner("bare1", [bare], seeds=(1,), out_dir=str(tmp_path))
    assert single.run()["ok"]


def test_jitter_is_deterministic_per_campaign_scenario_seed():
    def jittered(key):
        scenario = _tiny(
            faults=lambda: [
                PartitionFault(Trigger(at=4.0, duration=8.0), "/root/s0")
            ]
        )()
        _jitter_schedule(scenario, random.Random(key), spread=0.2)
        trigger = scenario.faults[0].trigger
        return trigger.at, trigger.duration

    assert jittered("c:s:1") == jittered("c:s:1")
    assert jittered("c:s:1") != jittered("c:s:2")
    at, duration = jittered("c:s:1")
    assert 3.2 <= at <= 4.8  # within ±20%
    assert 6.4 <= duration <= 9.6


# ----------------------------------------------------------------------
# The triage CLI
# ----------------------------------------------------------------------
def test_report_cli_passes_ok_campaign(tmp_path, capsys):
    CampaignRunner("ok", [_tiny()], seeds=(1,), out_dir=str(tmp_path)).run()
    path = str(tmp_path / "CAMPAIGN_ok.json")
    assert report_cli.main([path]) == 0
    out = capsys.readouterr().out
    assert "campaign ok: OK" in out
    assert "TRIAGE" not in out


def test_report_cli_flags_unexpected_runs(tmp_path, capsys):
    # A scenario that trips no auditor but *claims* it violates supply:
    # classified UNEXPECTED, so triage must fail the campaign.
    broken = _tiny(name="mislabeled", expect=Expectation.violates("supply"))
    CampaignRunner(
        "bad", [broken], seeds=(1,), out_dir=str(tmp_path),
        postmortem_dir=str(tmp_path / "postmortem"),
    ).run()
    path = str(tmp_path / "CAMPAIGN_bad.json")
    assert report_cli.main([path]) == 1
    out = capsys.readouterr().out
    assert "<-- TRIAGE" in out
    assert "expected violation never fired: supply" in out


def test_report_cli_json_mode(tmp_path, capsys):
    CampaignRunner("js", [_tiny()], seeds=(1,), out_dir=str(tmp_path)).run()
    path = str(tmp_path / "CAMPAIGN_js.json")
    assert report_cli.main([path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    assert payload["campaigns"][0]["name"] == "js"
    assert payload["campaigns"][0]["triage"] == []


def test_report_cli_rejects_wrong_schema(tmp_path):
    path = tmp_path / "CAMPAIGN_zzz.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError):
        report_cli.load_campaign(str(path))


# ----------------------------------------------------------------------
# The canonical library registry
# ----------------------------------------------------------------------
def test_library_registry_names_and_lookup():
    from repro.scenario import library

    names = library.names()
    assert len(names) == len(library.CANONICAL) == 15
    assert "baseline-healthy" in names
    assert "round-desync" in names
    assert library.get("baseline-healthy")().name == "baseline-healthy"
    with pytest.raises(ScenarioError):
        library.get("no-such-scenario")
    # Factories return fresh objects each call (faults are stateful).
    first, second = library.get("checkpoint-withholding")(), library.get(
        "checkpoint-withholding"
    )()
    assert first is not second
    assert first.faults[0] is not second.faults[0]


def test_smoke_subset_is_canonical():
    from repro.scenario import library

    assert set(library.SMOKE) <= set(library.CANONICAL)
    assert library.baseline_healthy in library.SMOKE
