"""MET001's two cross-file directions, each over a two-file tree: the
literal at an emit site must be a catalog key, and every catalog key must
be spelled somewhere outside the catalog.  (The per-node direction — a
computed name — is in the ``met001_*`` fixtures of ``test_rules.py``.)"""

import os

from repro.lint import lint_paths

CATALOG = (
    "METRIC_CATALOG: dict = {\n"
    '    "app.*.ok": ("counter", "requests served"),\n'
    '    "app.stale": ("gauge", "renamed long ago"),\n'
    "}\n"
)


def _write(tmp_path, rel, content):
    path = tmp_path / rel
    path.write_text(content, encoding="utf-8")
    return str(path)


def _by_file(report):
    return sorted((os.path.basename(f.path), f.line) for f in report.findings)


def test_literal_family_must_be_a_catalog_key(tmp_path):
    _write(tmp_path, "catalog.py", CATALOG + 'STALE = "app.stale"\n')
    _write(
        tmp_path,
        "emitter.py",
        "def f(self, sim, peer, ok):\n"
        '    sim.metrics.counter("app.*.ok", peer).inc()\n'
        '    sim.metrics.counter("app.*.okk", peer).inc()\n'
        '    self._metric("app.*.failed").inc()\n'  # a forwarding helper's caller
        '    sim.metrics.gauge("app.stale" if ok else "app.fresh").set(1)\n'
        "    sim.metrics.counter(peer).inc()\n",  # a plain name: not this rule's business
    )
    report = lint_paths([str(tmp_path)])
    assert {f.rule_id for f in report.findings} == {"MET001"}
    assert _by_file(report) == [("emitter.py", 3), ("emitter.py", 4), ("emitter.py", 5)]
    messages = " | ".join(f.message for f in report.findings)
    for name in ("'app.*.okk'", "'app.*.failed'", "'app.fresh'"):
        assert f"{name} is not a METRIC_CATALOG key" in messages


def test_catalog_key_must_be_spelled_outside_the_catalog(tmp_path):
    _write(tmp_path, "catalog.py", CATALOG)
    _write(tmp_path, "emitter.py", 'def f(sim, p):\n    sim.metrics.counter("app.*.ok", p).inc()\n')
    report = lint_paths([str(tmp_path)])
    (finding,) = report.findings
    assert (finding.rule_id, os.path.basename(finding.path), finding.line) == (
        "MET001", "catalog.py", 3,
    )
    assert "'app.stale' is declared but spelled nowhere else" in finding.message

    # Any verbatim spelling counts — a table the emit site indexes, say.
    _write(tmp_path, "table.py", 'FAMILY = {"old": "app.stale"}\n')
    assert lint_paths([str(tmp_path)]).findings == []


def test_one_side_of_the_seam_alone_reports_neither_direction(tmp_path):
    catalog = _write(tmp_path, "catalog.py", CATALOG)
    emitter = _write(
        tmp_path, "emitter.py", 'def f(sim):\n    sim.metrics.counter("app.undeclared").inc()\n'
    )
    assert len(lint_paths([str(tmp_path)]).findings) == 3  # both in view: 1 + 2
    # No catalog in view: membership proves nothing.  No emit site in view:
    # neither does never-spelled.  (And nothing is left over from the run above.)
    assert lint_paths([emitter]).findings == []
    assert lint_paths([catalog]).findings == []


def test_pragma_suppresses_at_either_endpoint(tmp_path):
    _write(tmp_path, "catalog.py", 'METRIC_CATALOG = {\n    "app.a": ("counter", "unused"),\n}\n')
    _write(tmp_path, "emitter.py", 'def f(sim):\n    sim.metrics.counter("app.b").inc()\n')
    assert _by_file(lint_paths([str(tmp_path)])) == [("catalog.py", 2), ("emitter.py", 2)]

    _write(
        tmp_path,
        "emitter.py",
        'def f(sim):\n    sim.metrics.counter("app.b").inc()  # lint: disable=MET001\n',
    )
    assert _by_file(lint_paths([str(tmp_path)])) == [("catalog.py", 2)]

    _write(
        tmp_path,
        "catalog.py",
        'METRIC_CATALOG = {\n    "app.a": ("counter", "unemitted"),  # lint: disable=MET001\n}\n',
    )
    assert lint_paths([str(tmp_path)]).findings == []
