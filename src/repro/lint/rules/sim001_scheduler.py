"""SIM001 — event handlers must not mutate scheduler state except via dispatch.

The simulator's clock and queue are the substrate every determinism
argument stands on.  A component that writes ``sim.now``, reaches into
``sim.queue``'s internals, or pushes/pops the queue directly bypasses the
dispatch bus (no instrumentation, no tie ordering, no trace) and can move
time backwards or reorder events invisibly.  Outside ``repro/sim``, the
only legal verbs are the scheduling API: ``schedule``, ``schedule_at``,
``cancel``, ``every``, ``halt`` (plus read-only access to ``sim.now``).

Flagged outside the sim package:

- assignments (plain or augmented) to a ``.now`` attribute of a sim-like
  receiver (``sim``, ``self.sim``, ``*.sim``) or to ``.queue``;
- any access to private simulator/queue internals through a sim-like
  receiver (``sim._halted``, ``sim.queue._heap``, ``queue._seq`` …);
- any load of ``<anything>.queue.push`` / ``.queue.pop``: the direct call,
  and the hoisted form (``push = self.sim.queue.push`` … ``push(...)``).
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.lint.config import SIM001_EXEMPT_PACKAGES, package_of
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name, has_noqa

_PRIVATE_SIM_ATTRS = {"_heap", "_seq", "_live", "_events_executed", "_halted", "_tie_shuffle"}


def _is_sim_receiver(node: ast.AST) -> bool:
    """Heuristic: does this expression look like a Simulator reference?"""
    name = dotted_name(node)
    if name is None:
        return False
    last = name.split(".")[-1]
    return last in ("sim", "simulator", "scheduler")


def _is_queue_receiver(node: ast.AST) -> bool:
    name = dotted_name(node)
    if name is None:
        return False
    last = name.split(".")[-1]
    return last == "queue" or _is_sim_receiver(node)


class Sim001SchedulerMutation(Rule):
    rule_id = "SIM001"
    fix_hint = (
        "use the dispatch API: sim.schedule/schedule_at/cancel/every/halt; "
        "never write sim.now or touch queue internals"
    )

    def applies(self, path: str) -> bool:
        pkg = package_of(path)
        return pkg is not None and pkg not in SIM001_EXEMPT_PACKAGES

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            if not has_noqa(lines, node, self.rule_id):
                findings.append(self.finding(path, node, message))

        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr == "now" and _is_sim_receiver(target.value):
                        flag(node, "assignment to sim.now — only the run loop advances time")
                    elif target.attr == "queue" and _is_sim_receiver(target.value):
                        flag(node, "replacing sim.queue — scheduler state is not swappable")
            elif isinstance(node, ast.Attribute):
                if node.attr in _PRIVATE_SIM_ATTRS and _is_queue_receiver(node.value):
                    flag(
                        node,
                        f"access to scheduler internal .{node.attr} — use the dispatch API",
                    )
                elif (
                    node.attr in ("push", "pop")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "queue"
                ):
                    flag(
                        node,
                        f"queue.{node.attr} reached directly (called or hoisted) bypasses "
                        "the dispatch bus — use sim.schedule/schedule_at",
                    )
        return findings
