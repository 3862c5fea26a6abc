"""Golden-fixture tests: each rule fires on its bad fixture, stays silent
on its clean one.  Fixtures are real files under ``tests/lint/fixtures/``
checked under *fake* repro paths, so rule scoping is exercised too."""

import os

import pytest

from repro.lint import LintEngine

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# rule id -> (fake path the fixture pretends to live at, expected minimum hits)
CASES = {
    "DET001": ("src/repro/hierarchy/fixture.py", 4),
    "DET002": ("src/repro/consensus/fixture.py", 3),
    "DET003": ("src/repro/hierarchy/gateway.py", 3),
    "LAY001": ("src/repro/sim/fixture.py", 2),  # module scope + function body
    "MET001": ("src/repro/telemetry/fixture.py", 5),  # f-string, +, .format, alias, %
    "SIM001": ("src/repro/runtime/fixture.py", 4),  # incl. the hoisted queue.push
}

CLEAN_PATHS = {
    "DET001": "src/repro/hierarchy/fixture.py",
    "DET002": "src/repro/consensus/fixture.py",
    "DET003": "src/repro/hierarchy/gateway.py",
    "LAY001": "src/repro/hierarchy/fixture.py",
    "MET001": "src/repro/consensus/fixture.py",
    "SIM001": "src/repro/runtime/fixture.py",
}


def _read(name: str) -> str:
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_bad_fixture_fires(rule_id):
    path, min_hits = CASES[rule_id]
    source = _read(f"{rule_id.lower()}_bad.py")
    findings = LintEngine().check_source(path, source)
    hits = [f for f in findings if f.rule_id == rule_id]
    assert len(hits) >= min_hits, (
        f"{rule_id} should fire >= {min_hits} times on its bad fixture, "
        f"got {[f.render() for f in findings]}"
    )
    for finding in hits:
        assert finding.path == path
        assert finding.line > 0
        assert finding.message
        assert finding.fix_hint


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_clean_fixture_is_silent(rule_id):
    source = _read(f"{rule_id.lower()}_clean.py")
    findings = LintEngine().check_source(CLEAN_PATHS[rule_id], source)
    same_rule = [f for f in findings if f.rule_id == rule_id]
    assert same_rule == [], [f.render() for f in same_rule]


def test_bad_fixtures_fire_only_their_own_rule():
    """Scoping sanity: the DET003 bad fixture checked outside the value-
    accounting files must not fire DET003."""
    source = _read("det003_bad.py")
    findings = LintEngine().check_source("src/repro/consensus/fixture.py", source)
    assert not any(f.rule_id == "DET003" for f in findings)


def test_noqa_pragma_suppresses():
    source = "import time\nt = time.time()  # lint: disable=DET001\n"
    findings = LintEngine().check_source("src/repro/hierarchy/fixture.py", source)
    assert findings == []


def test_layering_allows_same_layer_edges():
    # chain and consensus share a rank: the edge is legal in both directions.
    source = "from repro.chain.block import FullBlock\n"
    findings = LintEngine().check_source("src/repro/consensus/fixture.py", source)
    assert findings == []


def test_layering_flags_observability_leak_into_protocol():
    source = "from repro.telemetry import SpanTracer\n"
    findings = LintEngine().check_source("src/repro/hierarchy/fixture.py", source)
    assert [f.rule_id for f in findings] == ["LAY001"]
