"""CLI: ``python -m repro.lint [paths…]``.

Exit status 0 when every ERROR finding is baselined (or none exist),
1 otherwise.  See the package docstring for the rule catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    format_baseline_entry,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import lint_paths
from repro.lint.findings import Severity
from repro.lint.rules import ALL_RULES


def _default_baseline_path(paths) -> str:
    """Look for the committed baseline next to the linted tree.

    Walks up from the first linted path so the CLI works from the repo
    root (``src/repro`` → ``./LINT_BASELINE.txt``) and from ``src/``.
    """
    start = os.path.abspath(paths[0] if paths else ".")
    probe = start if os.path.isdir(start) else os.path.dirname(start)
    for _ in range(6):
        candidate = os.path.join(probe, DEFAULT_BASELINE_NAME)
        if os.path.exists(candidate):
            return candidate
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    return os.path.join(os.getcwd(), DEFAULT_BASELINE_NAME)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & layering sanitizer for the repro tree",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--baseline", default=None,
                        help=f"baseline file (default: nearest {DEFAULT_BASELINE_NAME})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report everything")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write all current findings to the baseline file and exit")
    parser.add_argument("--format", choices=("text", "json", "github"), default="text")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all)")
    args = parser.parse_args(argv)

    rules = ALL_RULES
    if args.rules:
        wanted = {r.strip().upper() for r in args.rules.split(",")}
        rules = tuple(r for r in ALL_RULES if r.rule_id in wanted)
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            parser.error(f"unknown rule ids: {', '.join(sorted(unknown))}")

    baseline_path = args.baseline or _default_baseline_path(args.paths)
    baseline = None if args.no_baseline else load_baseline(baseline_path)

    report = lint_paths(args.paths, baseline=baseline, rules=rules)

    if args.write_baseline:
        count = write_baseline(baseline_path, report.findings + report.baselined)
        print(f"wrote {count} entries to {baseline_path} — now justify each one")
        return 0

    if args.format == "json":
        json.dump(
            {
                "files_checked": report.files_checked,
                "findings": [
                    {
                        "rule": f.rule_id,
                        "severity": str(f.severity),
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                        "fix_hint": f.fix_hint,
                    }
                    for f in report.findings
                ],
                "baselined": [format_baseline_entry(f) for f in report.baselined],
                "stale_baseline": report.stale_baseline,
                "parse_errors": report.parse_errors,
                "ok": report.ok,
            },
            sys.stdout,
            indent=2,
        )
        print()
        return 0 if report.ok else 1

    if args.format == "github":
        # Workflow-command annotations: one line per finding, surfaced by
        # GitHub as inline PR comments.  Messages must be single-line with
        # %, CR and LF percent-escaped.
        def esc(text: str) -> str:
            return (
                text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
            )

        for path, err in report.parse_errors:
            print(f"::error file={path},title=parse-error::{esc(err)}")
        for f in report.findings:
            level = "error" if f.severity is Severity.ERROR else "warning"
            message = f.message if not f.fix_hint else f"{f.message} [{f.fix_hint}]"
            print(
                f"::{level} file={f.path},line={f.line},col={f.col + 1},"
                f"title={f.rule_id}::{esc(message)}"
            )
        for entry in report.stale_baseline:
            print(f"::warning title=stale-baseline::{esc(entry)}")
        return 0 if report.ok else 1

    for path, err in report.parse_errors:
        print(f"{path}: PARSE ERROR: {err}")
    for finding in report.findings:
        print(finding.render())
    if report.baselined:
        print(f"\n{len(report.baselined)} baselined finding(s) suppressed "
              f"(see {baseline.path}):")
        for finding in report.baselined:
            why = baseline.justification(finding) or "(no justification?)"
            print(f"  {finding.rule_id} {finding.path}:{finding.line} — {why}")
    if report.stale_baseline:
        print(f"\n{len(report.stale_baseline)} stale baseline entr"
              f"{'y' if len(report.stale_baseline) == 1 else 'ies'} "
              "(no longer matched — prune them):")
        for entry in report.stale_baseline:
            print(f"  {entry}")
    status = "clean" if report.ok else f"{len(report.errors)} error(s)"
    print(f"\nrepro.lint: {report.files_checked} files checked, {status}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
