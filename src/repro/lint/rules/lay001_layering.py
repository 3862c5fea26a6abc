"""LAY001 — the import-layering contract.

The stack layers strictly (see :data:`repro.lint.config.LAYERS` and the
DESIGN.md diagram)::

    crypto/analysis/lint < sim < net/storage < vm < chain/consensus
                         < runtime < hierarchy < workloads/baselines
                         < telemetry

A module may import only packages at its own rank or below — at module
scope or inside a function body, where an upward edge is the same
dependency, only harder to see.  Equal ranks form one architectural layer
and may interdepend (chain ↔ consensus).  Upward edges create import
cycles, drag heavy layers under light ones, and let observability code
leak into protocol logic; a lower layer that wants to be watched reports
on the observation stream (``repro.sim.observe``) instead.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from repro.lint.config import LAYERS, package_of
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, has_noqa


def _imported_repro_package(node: ast.AST) -> Optional[str]:
    """The top-level repro package an import statement pulls in."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                return parts[1]
    elif isinstance(node, ast.ImportFrom):
        if node.module:
            parts = node.module.split(".")
            if parts[0] == "repro":
                if len(parts) > 1:
                    return parts[1]
                # "from repro import hierarchy" — the names are packages.
                for alias in node.names:
                    if alias.name in LAYERS:
                        return alias.name
    return None


class Lay001Layering(Rule):
    rule_id = "LAY001"
    fix_hint = (
        "depend downward only; to be watched by a higher layer, report on "
        "the observation stream (repro.sim.observe) and let it attach"
    )

    def applies(self, path: str) -> bool:
        pkg = package_of(path)
        return pkg is not None and pkg in LAYERS

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        this_pkg = package_of(path)
        this_rank = LAYERS[this_pkg]
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            pkg = _imported_repro_package(node)
            if pkg is None or pkg == this_pkg:
                continue
            rank = LAYERS.get(pkg)
            if rank is None:
                continue
            if rank > this_rank and not has_noqa(lines, node, self.rule_id):
                findings.append(
                    self.finding(
                        path, node,
                        f"{this_pkg} (layer {this_rank}) imports {pkg} "
                        f"(layer {rank}) — upward edge",
                    )
                )
        return findings
