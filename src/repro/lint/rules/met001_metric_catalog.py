"""MET001 — a metric family is spelled once, the way ``METRIC_CATALOG`` spells it.

``MetricsRegistry.counter / gauge / histogram`` take the
family as their first argument — ``counter("chain.*.reorgs", subnet)`` —
so an emit site and the exporter's catalog agree by string equality, and
this rule looks at one AST node at a time:

- a *computed* string (f-string, ``+``, ``%``, ``.format``) as a metric
  name is a finding: the family it lands in cannot be read off the call;
- a *literal* name (either arm of a conditional) must be a catalog key —
  an undeclared family ships with no HELP text and no review of its name;
- every catalog key must be spelled verbatim somewhere in the linted tree
  outside the catalog dict — a key nothing spells is a dashboard panel
  that stays blank (usually a stale entry after a rename).

A plain variable as the name is neither and passes: that is a forwarding
helper's own registry call, and the helper's method name goes in
:data:`~repro.lint.config.METRIC_CALLS` so the literal at *its* callers
gets the same membership check.  Nothing is resolved, chased or
pattern-matched; the only cross-file state is the strings collected
during the sweep and compared once after it, and each direction is
skipped on a partial tree.  A pragma on the name's line or on the catalog
entry's line suppresses that finding.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from repro.lint.config import METRIC_CALLS
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, has_noqa


def _is_catalog(node: ast.AST) -> bool:
    """``METRIC_CATALOG = {...}``, annotated or not."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(node.value, ast.Dict):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(t, ast.Name) and t.id == "METRIC_CATALOG" for t in targets)


def _is_computed(node: ast.AST) -> bool:
    """An f-string, a ``+`` / ``%`` expression or a ``.format()`` call."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Mod))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "format"
    return isinstance(node, ast.JoinedStr)


def _callee(call: ast.Call):
    """The called name: ``counter`` for ``x.metrics.counter(...)`` and ``counter(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


class Met001MetricCatalog(Rule):
    rule_id = "MET001"
    fix_hint = (
        "pass the family as METRIC_CATALOG (repro/telemetry/export.py) spells it "
        "and the interpolated segments as further arguments"
    )

    def __init__(self) -> None:
        # A finding is made while its line is in hand and reported, or not, by
        # finish(); None stands for one the pragma on its line has muted.
        self._declared: dict[str, Optional[Finding]] = {}  # catalog key -> "never spelled"
        self._literal: list[tuple[str, Optional[Finding]]] = []  # name at a call, "not a key"
        self._spelled: set[str] = set()  # string constants outside the catalog dict

    def applies(self, path: str) -> bool:
        return True

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        def flag(node: ast.AST, message: str, fix_hint: Optional[str] = None):
            if has_noqa(lines, node, self.rule_id):
                return None
            return self.finding(path, node, message, fix_hint)

        computed: list[Optional[Finding]] = []
        todo: list[ast.AST] = [tree]
        while todo:
            node = todo.pop()
            if _is_catalog(node):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant):
                        self._declared[key.value] = flag(
                            key, f"family '{key.value}' is declared but spelled nowhere else",
                            "drop the stale catalog entry or fix the emitter",
                        )
                todo.extend(node.value.values)  # a key is a declaration, not a spelling
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                self._spelled.add(node.value)
            elif isinstance(node, ast.Call) and node.args and _callee(node) in METRIC_CALLS:
                first = node.args[0]
                arms = (first.body, first.orelse) if isinstance(first, ast.IfExp) else (first,)
                for name in arms:
                    if _is_computed(name):
                        computed.append(flag(name, "metric name is computed, not a catalog key"))
                    elif isinstance(name, ast.Constant) and isinstance(name.value, str):
                        self._literal.append(
                            (name.value, flag(name, f"'{name.value}' is not a METRIC_CATALOG key"))
                        )
            todo.extend(ast.iter_child_nodes(node))
        return [finding for finding in computed if finding]

    def finish(self) -> list[Finding]:
        declared, literal, spelled = self._declared, self._literal, self._spelled
        self.__init__()
        findings: list[Finding] = []
        if declared:  # membership needs the catalog in view
            findings.extend(f for family, f in literal if f and family not in declared)
        if literal:  # never-spelled needs an emit site in view
            findings.extend(f for family, f in declared.items() if f and family not in spelled)
        return findings
