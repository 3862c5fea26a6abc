"""The rule protocol and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from repro.lint.findings import Finding, Severity


class Rule:
    """One lint rule: a scoped AST pass producing :class:`Finding`s."""

    rule_id: str = "RULE000"
    severity: Severity = Severity.ERROR
    fix_hint: str = ""

    def applies(self, path: str) -> bool:
        """Whether this rule runs on *path* (repo-relative)."""
        raise NotImplementedError

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        """Return every violation of this rule in the parsed file."""
        raise NotImplementedError

    def finish(self) -> list[Finding]:
        """Findings that need the whole sweep; called once after the last
        file.  A rule that keeps state across files hands it over here."""
        return []

    # -- helpers -------------------------------------------------------
    def finding(
        self,
        path: str,
        node: ast.AST,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def has_noqa(lines: Sequence[str], node: ast.AST, rule_id: str) -> bool:
    """True if the node's line carries ``# lint: disable=<rule_id>``."""
    line = getattr(node, "lineno", 0)
    if not (0 < line <= len(lines)):
        return False
    text = lines[line - 1]
    return f"lint: disable={rule_id}" in text or "lint: disable=all" in text
