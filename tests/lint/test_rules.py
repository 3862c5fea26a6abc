"""Golden-fixture tests of the determinism rules (``rules.py``): each rule
fires on its bad fixture exactly as often as pinned here, and no rule fires
on a clean one.  A fixture is checked at a fake ``src/repro`` path, so the
rules' scoping is exercised too, and beside the real metric catalog, so
MET001 sees the keys a literal name must be."""

import ast
import os

import pytest

from tests.lint.rules import findings, met001

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CATALOG = "telemetry/export.py"

# rule id -> (fake path the fixture is checked at, its hits)
CASES = {
    "DET001": ("hierarchy/fixture.py", 9),  # through import aliases, and unseeded Random()
    "DET002": ("consensus/fixture.py", 3),
    "DET003": ("hierarchy/gateway.py", 3),
    "LAY001": ("sim/fixture.py", 4),  # module scope, function body, every name of an import
    "MET001": ("telemetry/fixture.py", 5),  # f-string, +, .format, alias, %
    "SIM001": ("runtime/fixture.py", 4),  # incl. the hoisted queue.push
}

CLEAN_PATHS = {
    "DET001": "hierarchy/fixture.py",
    "DET002": "consensus/fixture.py",
    "DET003": "hierarchy/gateway.py",
    "LAY001": "hierarchy/fixture.py",
    "MET001": "consensus/fixture.py",
    "SIM001": "runtime/fixture.py",
}


def _check(index, path, source):
    """``(rule, line)`` of every finding at *path*, where *source* sits beside the catalog."""
    modules = {CATALOG: index[f"src/repro/{CATALOG}"].tree, path: ast.parse(source)}
    return [(rule, line) for where, line, rule, _message in findings(modules) if where == path]


def _fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_fires(index, rule_id):
    path, hits = CASES[rule_id]
    found = _check(index, path, _fixture(f"{rule_id.lower()}_bad.py"))
    assert [rule for rule, _line in found if rule == rule_id] == [rule_id] * hits, found


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_clean_fixture_is_silent(index, rule_id):
    assert _check(index, CLEAN_PATHS[rule_id], _fixture(f"{rule_id.lower()}_clean.py")) == []


def test_value_arithmetic_is_checked_only_in_the_accounting_files(index):
    found = _check(index, "consensus/fixture.py", _fixture("det003_bad.py"))
    assert "DET003" not in {rule for rule, _line in found}


def test_layering_allows_same_layer_edges(index):
    # chain and consensus share a rank: the edge is legal in both directions.
    assert _check(index, "consensus/fixture.py", "from repro.chain.block import FullBlock\n") == []


def test_layering_flags_observability_leak_into_protocol(index):
    source = "from repro.telemetry import SpanTracer\n"
    assert _check(index, "hierarchy/fixture.py", source) == [("LAY001", 1)]


# Each way a module reaches the wall clock or OS entropy: the call on line 2
# is the one finding, so a form missed cannot hide behind one counted twice.
ENTROPY = {
    "attribute": "import time\ntime.time()\n",
    "from-import": "from time import time\ntime()\n",
    "module-alias": "import time as clock\nclock.time()\n",
    "from-import-os": "from os import urandom\nurandom(8)\n",
    "unseeded-Random": "from random import Random\nRandom().random()\n",
    "unseeded-random.Random": "import random\nrandom.Random()\n",
}


@pytest.mark.parametrize("form", sorted(ENTROPY))
def test_det001_resolves_each_call_through_the_imports(index, form):
    assert _check(index, "hierarchy/fixture.py", ENTROPY[form]) == [("DET001", 2)]


@pytest.mark.parametrize("source", [
    "from random import Random\nRandom(7).random()\n",
    "import time as _wallclock\n_wallclock.perf_counter()\n",
    "def f(time):\n    return time()\n",  # a parameter, not the module
])
def test_det001_passes_a_seeded_stream_profiling_and_a_shadowing_name(index, source):
    assert _check(index, "hierarchy/fixture.py", source) == []


def test_det001_exempts_the_crypto_package_and_the_rng_module(index):
    source = "import os\nos.urandom(8)\n"
    assert _check(index, "crypto/fixture.py", source) == _check(index, "sim/rng.py", source) == []


@pytest.mark.parametrize("source", [
    "import repro.sim, repro.telemetry\n",
    "from repro import sim, telemetry\n",
])
def test_lay001_checks_every_name_of_an_import(index, source):
    assert _check(index, "hierarchy/fixture.py", source) == [("LAY001", 1)]


def test_findings_are_sorted_by_file_then_line():
    modules = {
        "net/b.py": ast.parse("import time\n\ntime.time()\nsim.queue.push(0, f)\n"),
        "hierarchy/a.py": ast.parse("import time\ntime.time()\n"),
    }
    assert [(path, line, rule) for path, line, rule, _message in findings(modules)] == [
        ("hierarchy/a.py", 2, "DET001"), ("net/b.py", 3, "DET001"), ("net/b.py", 4, "SIM001"),
    ]


CATALOG_SOURCE = (
    "METRIC_CATALOG: dict = {\n"
    '    "app.*.ok": ("counter", "requests served"),\n'
    '    "app.stale": ("gauge", "renamed long ago"),\n'
    "}\n"
)


def _met001(**sources):
    """MET001's ``(file, line, message)`` over in-memory modules, by file name."""
    return sorted(met001({name: ast.parse(source) for name, source in sources.items()}))


def test_literal_family_must_be_a_catalog_key():
    emitter = (
        "def f(self, sim, peer, ok):\n"
        '    sim.metrics.counter("app.*.ok", peer).inc()\n'
        '    sim.metrics.counter("app.*.okk", peer).inc()\n'
        '    self._metric("app.*.failed").inc()\n'  # a forwarding helper's caller
        '    sim.metrics.gauge("app.stale" if ok else "app.fresh").set(1)\n'
        "    sim.metrics.counter(peer).inc()\n"  # a plain name: not this rule's business
    )
    assert _met001(catalog=CATALOG_SOURCE, emitter=emitter) == [
        ("emitter", 3, "'app.*.okk' is not a METRIC_CATALOG key"),
        ("emitter", 4, "'app.*.failed' is not a METRIC_CATALOG key"),
        ("emitter", 5, "'app.fresh' is not a METRIC_CATALOG key"),
    ]


def test_catalog_key_must_be_spelled_outside_the_catalog():
    emitter = 'def f(sim, p):\n    sim.metrics.counter("app.*.ok", p).inc()\n'
    assert _met001(catalog=CATALOG_SOURCE, emitter=emitter) == [
        ("catalog", 3, "family 'app.stale' is declared but spelled nowhere else"),
    ]
    # Any verbatim spelling counts — a table the emit site indexes, say.
    table = 'FAMILY = {"old": "app.stale"}\n'
    assert _met001(catalog=CATALOG_SOURCE, emitter=emitter, table=table) == []
