"""DET002 — no ordering-sensitive iteration over sets in consensus paths.

Python set iteration order depends on element hashes and insertion
history; for strings it varies run-to-run with hash randomization.  Any
set-ordered loop that feeds block assembly, validation or cross-net
routing therefore breaks byte-reproducibility.  In ``consensus/``,
``chain/`` and ``hierarchy/``, iterate ``sorted(the_set)`` instead.

The rule flags, within those packages:

- ``for x in <set>`` loops and list/dict-comprehension generators over
  set-typed expressions (literals, ``set()``/``frozenset()`` calls, set
  comprehensions, set-algebra binops including ``a.keys() - b.keys()``
  keys-view algebra, and local names assigned from any of those);
- ``list(<set>)`` / ``tuple(<set>)`` materializations (they freeze the
  arbitrary order into an ordered value);
- ``for x in d.keys()`` — dict order is insertion order, which is only as
  deterministic as every code path that populated the dict; consensus
  paths must make the order explicit with ``sorted(...)``.

Order-insensitive consumers (``sorted``, ``sum``, ``len``, ``min``,
``max``, ``any``, ``all``, set algebra itself) are not flagged.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.lint.config import DET002_PACKAGES, in_packages
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, has_noqa

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


class _ScopeVisitor(ast.NodeVisitor):
    """One pass over a single function (or module) scope."""

    def __init__(self, rule: "Det002SetIteration", path: str, lines: Sequence[str]):
        self.rule = rule
        self.path = path
        self.lines = lines
        self.set_locals: set[str] = set()
        self.findings: list[Finding] = []
        # Comprehensions fed directly into order-insensitive consumers
        # (sum(x for x in s), sorted(...)) — exempted by node identity.
        self._sanctioned: set[int] = set()

    # -- set-typedness inference --------------------------------------
    def is_set_typed(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            # keys-view algebra (a.keys() - b.keys()) yields a set; so does
            # set algebra on anything already inferred as a set.
            if _is_keys_call(node.left) or _is_keys_call(node.right):
                return True
            return self.is_set_typed(node.left) or self.is_set_typed(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_locals
        return False

    def _collect_assignment(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self.is_set_typed(value):
                self.set_locals.add(target.id)
            else:
                self.set_locals.discard(target.id)  # rebinding clears it

    # -- scope boundaries ---------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.rule.check_scope(node, self.path, self.lines, self.findings)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in node.body:
            self.visit(child)

    # -- assignments ---------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._collect_assignment(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is not None:
            self._collect_assignment(node.target, node.value)

    # -- iteration sites ------------------------------------------------
    def _flag(self, node: ast.AST, what: str) -> None:
        if not has_noqa(self.lines, node, self.rule.rule_id):
            self.findings.append(self.rule.finding(self.path, node, what))

    def visit_For(self, node: ast.For) -> None:
        self.generic_visit(node)
        if self.is_set_typed(node.iter):
            self._flag(node, "iteration over a set has no deterministic order")
        elif _is_keys_call(node.iter):
            self._flag(
                node,
                "iteration over dict.keys() in a consensus path; make the "
                "order explicit",
            )

    def _check_comprehension(self, node) -> None:
        self.generic_visit(node)
        if id(node) in self._sanctioned:
            return
        for gen in node.generators:
            if self.is_set_typed(gen.iter):
                self._flag(
                    node, "comprehension over a set has no deterministic order"
                )

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    _ORDER_INSENSITIVE = frozenset(
        ("sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset")
    )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in self._ORDER_INSENSITIVE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.SetComp)):
                    self._sanctioned.add(id(arg))
        self.generic_visit(node)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and self.is_set_typed(node.args[0])
        ):
            self._flag(
                node,
                f"{node.func.id}(<set>) freezes an arbitrary order into an "
                "ordered value",
            )


class Det002SetIteration(Rule):
    rule_id = "DET002"
    fix_hint = "iterate sorted(the_set) (or keep a canonically-ordered list alongside)"

    def applies(self, path: str) -> bool:
        return in_packages(path, DET002_PACKAGES)

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        findings: list[Finding] = []
        self.check_scope(tree, path, lines, findings)
        return findings

    def check_scope(self, scope_node, path, lines, findings) -> None:
        """Analyse one lexical scope; nested functions recurse."""
        visitor = _ScopeVisitor(self, path, lines)
        body = scope_node.body if hasattr(scope_node, "body") else []
        for child in body:
            visitor.visit(child)
        findings.extend(visitor.findings)
