"""The rule engine: walk files, parse once, run every applicable rule.

One sweep: each module is parsed once and every :class:`Rule` that applies
to its path checks it; after the last file each rule's ``finish()`` hands
over what it could only decide with the whole sweep behind it.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ALL_RULES


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield every ``.py`` file under *paths* (files pass through as-is)."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors and not self.parse_errors


class LintEngine:
    """Runs a rule set over a file tree."""

    def __init__(self, rules: Optional[Sequence] = None) -> None:
        self.rules: tuple = tuple(rules if rules is not None else ALL_RULES)

    def _sweep(self, modules) -> list[Finding]:
        """Every finding over ``(path, tree, lines)`` *modules*, sorted."""
        findings: list[Finding] = []
        for path, tree, lines in modules:
            for rule in self.rules:
                if rule.applies(path):
                    findings.extend(rule.check(path, tree, lines))
        for rule in self.rules:
            findings.extend(rule.finish())
        findings.sort(key=lambda f: f.sort_key())
        return findings

    def check_source(self, path: str, source: str) -> list[Finding]:
        """Lint one in-memory source blob (fixtures use this directly)."""
        tree = ast.parse(source, filename=path)
        return self._sweep([(path, tree, source.splitlines())])

    def run(self, paths: Sequence[str]) -> LintReport:
        report = LintReport()
        modules: list[tuple] = []
        for filepath in iter_python_files(paths):
            norm = filepath.replace(os.sep, "/")
            try:
                with open(filepath, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=norm)
            except (SyntaxError, UnicodeDecodeError, OSError) as err:
                report.parse_errors.append((norm, str(err)))
                continue
            modules.append((norm, tree, source.splitlines()))
        report.files_checked = len(modules)

        report.findings = self._sweep(modules)
        return report


def lint_paths(paths: Sequence[str], rules: Optional[Iterable] = None) -> LintReport:
    """One-call API: lint *paths* and return the report."""
    return LintEngine(rules=tuple(rules) if rules is not None else None).run(paths)
