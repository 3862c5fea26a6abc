"""DET001 — no wall-clock or OS entropy outside the sanctioned modules.

A deterministic simulation has exactly one clock (``sim.now``) and one
randomness root (``sim.rng(*scope)``, backed by ``sim/rng.py``).  Reading
the host's wall clock or entropy pool anywhere else silently breaks
byte-reproducibility — the precondition every digest test, invariant audit
and experiment in this repo relies on.

Flagged:

- ``time.time`` / ``time.time_ns`` / ``datetime.now`` / ``datetime.utcnow``
  / ``datetime.today`` (wall clock — use ``sim.now``);
- ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``, ``random.SystemRandom``,
  and any import of ``secrets`` (OS entropy);
- module-level ``random.<draw>()`` calls and ``from random import <draw>``
  (the process-global, effectively unseeded stream — use
  ``sim.rng(*scope)`` or an explicit ``random.Random(seed)``).

Deliberately *not* flagged: ``time.perf_counter``/``monotonic`` (wall-time
profiling is digest-neutral by design — it never feeds the trace)
and ``random.Random(seed)`` construction (explicitly seeded).
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.lint.config import DET001_EXEMPT_PREFIXES, repro_relpath
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name, has_noqa

# Attribute chains that read the wall clock or entropy pool.
_FORBIDDEN_CALLS = {
    "time.time": "wall-clock read; use sim.now (simulated seconds)",
    "time.time_ns": "wall-clock read; use sim.now (simulated seconds)",
    "datetime.now": "wall-clock read; use sim.now (simulated seconds)",
    "datetime.utcnow": "wall-clock read; use sim.now (simulated seconds)",
    "datetime.today": "wall-clock read; use sim.now (simulated seconds)",
    "datetime.datetime.now": "wall-clock read; use sim.now (simulated seconds)",
    "datetime.datetime.utcnow": "wall-clock read; use sim.now (simulated seconds)",
    "os.urandom": "OS entropy; derive from sim.rng(*scope) instead",
    "uuid.uuid1": "host-dependent id; derive a CID or use sim.rng(*scope)",
    "uuid.uuid4": "OS entropy; derive a CID or use sim.rng(*scope)",
    "random.SystemRandom": "OS entropy; use sim.rng(*scope)",
}

# Module-level random draws (the process-global stream).  random.Random is
# absent on purpose: explicitly-seeded generators are the sanctioned tool.
_RANDOM_DRAWS = {
    "seed", "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    "lognormvariate", "getrandbits", "randbytes",
}


class Det001Entropy(Rule):
    rule_id = "DET001"
    fix_hint = "route all time through sim.now and all randomness through sim.rng(*scope)"

    def applies(self, path: str) -> bool:
        rel = repro_relpath(path)
        if rel is None:
            return False
        return not any(rel.startswith(prefix) for prefix in DET001_EXEMPT_PREFIXES)

    def check(self, path: str, tree: ast.Module, lines: Sequence[str]) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                reason = _FORBIDDEN_CALLS.get(name)
                if reason is None and name.startswith("random."):
                    attr = name.split(".", 1)[1]
                    if attr in _RANDOM_DRAWS:
                        reason = (
                            "module-level random draw (process-global stream); "
                            "use sim.rng(*scope) or random.Random(seed)"
                        )
                if reason is not None and not has_noqa(lines, node, self.rule_id):
                    findings.append(
                        self.finding(path, node, f"{name}(): {reason}")
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    bad = [a.name for a in node.names if a.name in _RANDOM_DRAWS]
                    if bad and not has_noqa(lines, node, self.rule_id):
                        findings.append(
                            self.finding(
                                path, node,
                                f"from random import {', '.join(bad)}: module-level "
                                "random draws; use sim.rng(*scope)",
                            )
                        )
                elif node.module == "secrets" and not has_noqa(lines, node, self.rule_id):
                    findings.append(
                        self.finding(
                            path, node,
                            "import of secrets: OS entropy; use sim.rng(*scope)",
                        )
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "secrets" and not has_noqa(lines, node, self.rule_id):
                        findings.append(
                            self.finding(
                                path, node,
                                "import of secrets: OS entropy; use sim.rng(*scope)",
                            )
                        )
        return findings
