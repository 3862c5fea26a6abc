"""``python -m repro.scenario.report`` — triage a campaign JSON.

Reads one or more ``CAMPAIGN_*.json`` files, prints a verdict table and
a drill-down for every non-OK run (which auditors tripped, which faults
had fired by then, where the postmortem bundles landed), and exits
non-zero when any campaign is not OK — the CI gate.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.analysis.report import Table
from repro.scenario.campaign import CAMPAIGN_SCHEMA
from repro.scenario.spec import OK_VERDICTS


def load_campaign(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    schema = report.get("schema")
    if schema != CAMPAIGN_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return report


def _verdict_table(report: dict) -> Table:
    table = Table(
        f"campaign {report['name']}",
        ["scenario", "seed", "verdict", "expected", "tripped", "stalls", "bundles"],
    )
    for run in report["runs"]:
        table.add_row(
            run["scenario"],
            run["seed"],
            run["verdict"] + ("" if run["ok"] else "  <-- TRIAGE"),
            run["expected"],
            ",".join(run["tripped"]) or "-",
            len(run["stalls"]),
            len(run["bundles"]),
        )
    return table


def _triage_detail(run: dict) -> str:
    lines = [
        f"TRIAGE {run['scenario']} seed={run['seed']}: "
        f"{run['verdict']} (expected {run['expected']})"
    ]
    for note in run["notes"]:
        lines.append(f"  note: {note}")
    for violation in run["violations"][:10]:
        lines.append(
            f"  violation t={violation['time']:.2f} [{violation['auditor']}] "
            f"{violation['subnet']}: {violation['description']}"
        )
    if len(run["violations"]) > 10:
        lines.append(f"  ... and {len(run['violations']) - 10} more violations")
    for stall in run["stalls"]:
        lines.append(
            f"  stall {stall['subnet']}: height {stall['height']} since "
            f"t={stall['since']:.2f}"
        )
        if stall.get("report"):
            lines.append(f"    {stall['report']['quorum']['line']}")
    for entry in run["fault_log"]:
        lines.append(
            f"  fault t={entry['time']:.2f} {entry['event']} {entry['kind']}"
        )
    for path in run["bundles"]:
        lines.append(f"  bundle: {path}")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario.report",
        description="Triage repro.scenario campaign reports.",
    )
    parser.add_argument("paths", nargs="+", help="CAMPAIGN_*.json files")
    args = parser.parse_args(argv)

    exit_code = 0
    for path in args.paths:
        report = load_campaign(path)
        bad = [run for run in report["runs"] if run["verdict"] not in OK_VERDICTS]
        if bad:
            exit_code = 1
        _verdict_table(report).show()
        for run in bad:
            print("\n" + _triage_detail(run))
        status = "OK" if not bad else "NOT OK"
        print(
            f"\ncampaign {report['name']}: {status} "
            f"({len(report['runs'])} runs, {report['summary']})"
        )
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
