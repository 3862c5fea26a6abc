"""DET003 — no float arithmetic in value/supply accounting.

The §II firewall property is an *exact* conservation law: the circulating
supply of a subnet must never exceed what its parent locked, and every
burn/mint pair must cancel to the token.  Floats cannot express that —
``0.1 + 0.2 != 0.3``, large balances lose integer precision past 2**53,
and rounding direction becomes platform-dependent in corner cases.  The
value-accounting hot spots (``hierarchy/firewall.py``,
``hierarchy/crossmsg*``, ``hierarchy/gateway.py``) must compute in ints.

Flagged inside those files:

- arithmetic binops (``+ - * / // % **``) with a float literal operand;
- ``float(...)`` conversions;
- true division ``/`` anywhere (integer accounting divides with ``//``);
- augmented assignments (``+=`` …) with a float literal operand.

Timestamps (simulated seconds) are floats by design; they live outside
these files, so the blanket rule stays simple and loud.
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.lint.config import DET003_FILES, repro_relpath
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, has_noqa

_ARITH = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # -0.5 parses as UnaryOp(USub, Constant(0.5))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


class Det003FloatAccounting(Rule):
    rule_id = "DET003"
    fix_hint = "account in integer token units; divide with // and round explicitly"

    def applies(self, path: str) -> bool:
        rel = repro_relpath(path)
        return rel is not None and rel in DET003_FILES

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            if not has_noqa(lines, node, self.rule_id):
                findings.append(self.finding(path, node, message))

        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH):
                if isinstance(node.op, ast.Div):
                    flag(node, "true division yields float; use // for value math")
                elif _is_float_literal(node.left) or _is_float_literal(node.right):
                    flag(node, "float literal in value arithmetic")
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, _ARITH):
                if isinstance(node.op, ast.Div):
                    flag(node, "true division yields float; use //= for value math")
                elif _is_float_literal(node.value):
                    flag(node, "float literal in value arithmetic")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                flag(node, "float() conversion in value accounting")
        return findings
