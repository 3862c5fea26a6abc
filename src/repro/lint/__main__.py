"""CLI: ``python -m repro.lint [paths…]``.

Exit status 0 when there is no ERROR finding and every file parsed,
1 otherwise.  See the package docstring for the rule catalogue.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lint.engine import lint_paths
from repro.lint.findings import Severity
from repro.lint.rules import ALL_RULES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism & layering sanitizer for the repro tree",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
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

    report = lint_paths(args.paths, rules=rules)

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
        return 0 if report.ok else 1

    for path, err in report.parse_errors:
        print(f"{path}: PARSE ERROR: {err}")
    for finding in report.findings:
        print(finding.render())
    status = "clean" if report.ok else f"{len(report.errors)} error(s)"
    print(f"\nrepro.lint: {report.files_checked} files checked, {status}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
