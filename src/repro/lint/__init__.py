"""`repro.lint` — the determinism & layering sanitizer.

Everything this reproduction claims rests on byte-reproducible simulation:
the digest-neutrality of telemetry, the invariant monitors' exactly-once
and supply-conservation audits, and every E1–E11 experiment.  One
``time.time()``, one unseeded ``random`` draw or one ``set`` iteration in
a consensus hot path silently breaks that property.  This package turns
the assumption into a checked one:

- **DET001** — no wall-clock or OS entropy (``time.time``,
  ``datetime.now``, ``os.urandom``, module-level ``random.*`` draws)
  outside ``crypto/`` and ``sim/rng.py``;
- **DET002** — no iteration over ``set``-typed values feeding
  ordering-sensitive logic in ``consensus/``, ``chain/``, ``hierarchy/``
  (wrap in ``sorted(...)``);
- **DET003** — no ``float`` arithmetic in value/supply accounting
  (``hierarchy/firewall.py``, ``hierarchy/crossmsg*``,
  ``hierarchy/gateway.py``);
- **LAY001** — the import-layering contract (see
  :data:`repro.lint.config.LAYERS`): no upward or skipped-contract edges,
  at module scope or inside a function;
- **SIM001** — event handlers must not mutate scheduler state
  (``sim.now``, the queue's internals) except through the dispatch API
  (``schedule``/``schedule_at``/``cancel``/``every``/``halt``);
- **MET001** — a metric family is spelled once, the way the exporter's
  ``METRIC_CATALOG`` spells it: a computed string as a metric name is a
  finding, a literal name must be a catalog key, and every catalog key
  must be spelled somewhere outside the catalog.

The other seams are names too, so no rule has to re-derive them: a gossip
topic is the return value of one helper shared by its publisher and its
subscriber, the RPC endpoint is one module constant, and a scenario's
auditor and fault-kind names are checked by the constructor they are
handed to.

Run it with ``python -m repro.lint src/repro``.  Any ERROR finding fails
the run; the one way to exempt a line is a ``# lint: disable=<RULE>``
pragma on it, with the reason beside it.  ``--format=github`` emits
workflow-command annotations for CI.

The static pass is paired with a *runtime* race detector:
``Simulator(tie_shuffle=<seed>)`` (or ``$REPRO_TIE_SHUFFLE``)
deterministically permutes same-timestamp event ties; comparing
``HierarchicalSystem.end_state_digest()`` across shuffle seeds flushes
out hidden tie-order dependence that no syntactic rule can see.
"""

from repro.lint.findings import Finding, Severity
from repro.lint.engine import LintEngine, lint_paths, iter_python_files
from repro.lint.rules import ALL_RULES

__all__ = [
    "Finding",
    "Severity",
    "LintEngine",
    "lint_paths",
    "iter_python_files",
    "ALL_RULES",
]
