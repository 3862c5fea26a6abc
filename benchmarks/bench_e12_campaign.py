"""E12 — Adversarial scenario campaign: faults, attacks, triage.

The robustness counterpart to the performance experiments: the canonical
scenario library (repro.scenario.library) drives the full instrumented
system through honest faults (partitions, loss, latency, crash/churn, a
past-the-horizon outage, spam, sub-quorum equivocation) and through the
paper's attacks (checkpoint withholding + forged epoch regression, the
§II forged extraction, deep reorgs, a rogue engine swap).  Every honest scenario
must classify ``clean``; every attack must trip *exactly* the auditor it
targets (``expected-violation``).

A second one-scenario campaign is the triage drill: the forged-extraction
attack deliberately mislabeled as ``safe``.  The runner must classify it
UNEXPECTED, dump a postmortem bundle, and ``python -m
repro.scenario.report`` must exit non-zero on its campaign file — proof
the nightly pipeline would actually page on a novel violation.

Expected shape: 15/15 library verdicts correct; the drill produces ≥1
bundle and a failing triage exit code; whole thing in well under a
minute of wall time.
"""

import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - standalone `python benchmarks/...`
    sys.path.insert(
        0,
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        ),
    )
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

from repro.scenario import library
from repro.scenario import report as triage
from repro.scenario.campaign import CampaignRunner
from repro.scenario.spec import Expectation, VERDICT_UNEXPECTED

from common import bench_out_dir, run_once, show_table, write_bench_json

SEED = 7


def _mislabeled_forged_extraction():
    """The forged-extraction attack claiming to be a safe scenario."""
    scenario = library.forged_extraction()
    scenario.name = "injected-unexpected"
    scenario.expect = Expectation.safe()
    return scenario


def _run():
    out_dir = bench_out_dir()

    campaign = CampaignRunner(
        "e12_library",
        list(library.CANONICAL),
        seeds=(SEED,),
        out_dir=out_dir,
        postmortem_dir=out_dir,
    )
    report = campaign.run()

    drill = CampaignRunner(
        "e12_triage_drill",
        [_mislabeled_forged_extraction],
        seeds=(SEED,),
        out_dir=out_dir,
        postmortem_dir=out_dir,
    )
    drill_report = drill.run()

    return {
        "library": report,
        "library_path": campaign.path,
        "drill": drill_report,
        "drill_path": drill.path,
    }


def _check(result):
    report = result["library"]
    assert report["ok"], f"library campaign not OK: {report['summary']}"
    for run in report["runs"]:
        if run["expected"] == "safe":
            assert run["verdict"] == "clean", (
                f"{run['scenario']}: honest scenario not clean: {run['notes']}"
            )
        else:
            assert run["verdict"] == "expected-violation", (
                f"{run['scenario']}: attack misclassified: {run['notes']}"
            )
            assert run["tripped"], f"{run['scenario']}: no auditor named"

    drill = result["drill"]
    assert not drill["ok"], "mislabeled attack slipped through as OK"
    (bad,) = drill["runs"]
    assert bad["verdict"] == VERDICT_UNEXPECTED
    assert bad["bundles"], "unexpected verdict left no postmortem bundle"
    for bundle in bad["bundles"]:
        assert os.path.exists(bundle), f"missing bundle {bundle}"

    # The triage CLI is the CI gate: green on the library, red on the drill.
    assert triage.main([result["library_path"]]) == 0
    assert triage.main([result["drill_path"]]) == 1


def _show(result):
    report = result["library"]
    show_table(
        f"E12 — scenario campaign verdicts (seed {SEED})",
        ["scenario", "expected", "verdict", "tripped"],
        [
            (
                run["scenario"],
                run["expected"],
                run["verdict"],
                ",".join(run["tripped"]) or "-",
            )
            for run in report["runs"] + result["drill"]["runs"]
        ],
    )
    rows = [
        {
            "scenario": run["scenario"],
            "campaign": name,
            "seed": run["seed"],
            "expected": run["expected"],
            "verdict": run["verdict"],
            "ok": run["ok"],
            "tripped": run["tripped"],
            "heights": run["heights"],
            "events_executed": run["sim"].get("events_executed"),
            "bundles": len(run["bundles"]),
        }
        for name, runs in (
            ("e12_library", report["runs"]),
            ("e12_triage_drill", result["drill"]["runs"]),
        )
        for run in runs
    ]
    write_bench_json(
        "e12_campaign",
        rows=rows,
        extra={
            "library_summary": report["summary"],
            "library_ok": report["ok"],
            "drill_summary": result["drill"]["summary"],
            "drill_flagged": not result["drill"]["ok"],
            "campaign_files": [result["library_path"], result["drill_path"]],
        },
    )


@pytest.mark.benchmark(group="e12")
def test_e12_campaign(benchmark):
    result = run_once(benchmark, _run)
    _show(result)
    _check(result)


if __name__ == "__main__":
    outcome = _run()
    _show(outcome)
    _check(outcome)
    print("\nE12 campaign: all verdicts correct, triage drill flagged.")
