"""Engine, baseline and CLI behaviour."""

import os
import subprocess
import sys

from repro.lint import LintEngine, lint_paths, load_baseline
from repro.lint.baseline import Baseline, format_baseline_entry, write_baseline
from repro.lint.findings import Finding, Severity

BAD_SOURCE = "import time\n\n\ndef stamp(block):\n    block['ts'] = time.time()\n    return block\n"


def _write(tmp_path, rel, content):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return str(path)


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv], capture_output=True, text=True, env=env
    )


def test_run_collects_and_sorts_findings(tmp_path):
    _write(tmp_path, "repro/hierarchy/b.py", BAD_SOURCE)
    _write(tmp_path, "repro/hierarchy/a.py", BAD_SOURCE)
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 2
    assert [f.path.endswith("a.py") for f in report.findings] == [True, False]
    assert all(f.rule_id == "DET001" for f in report.findings)
    assert not report.ok


def test_baseline_matches_by_content_not_line_number(tmp_path):
    bad = _write(tmp_path, "repro/hierarchy/mod.py", BAD_SOURCE)
    report = lint_paths([str(tmp_path)])
    (finding,) = report.findings
    entry = format_baseline_entry(finding)

    baseline = Baseline(entries={entry: "known benign"})
    report2 = lint_paths([str(tmp_path)], baseline=baseline)
    assert report2.findings == []
    assert len(report2.baselined) == 1
    assert report2.ok

    # Shift the offending line down: content match must survive the drift.
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write("# a new comment line\n" + BAD_SOURCE)
    report3 = lint_paths([str(tmp_path)], baseline=baseline)
    assert report3.findings == []
    assert report3.ok

    # Editing the flagged line itself invalidates the entry.
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write(BAD_SOURCE.replace("block['ts']", "block['when']"))
    report4 = lint_paths([str(tmp_path)], baseline=baseline)
    assert len(report4.findings) == 1
    assert report4.stale_baseline == [entry]


def test_baseline_survives_whitespace_only_reformat(tmp_path):
    bad = _write(tmp_path, "repro/hierarchy/mod.py", BAD_SOURCE)
    report = lint_paths([str(tmp_path)])
    (finding,) = report.findings
    baseline = Baseline(entries={format_baseline_entry(finding): "benign"})

    # Re-indent the flagged line: entries match on the *stripped* content.
    reformatted = BAD_SOURCE.replace(
        "    block['ts'] = time.time()", "        block['ts'] = time.time()"
    ).replace("def stamp(block):", "def stamp(block):\n    if True:")
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write(reformatted)
    report2 = lint_paths([str(tmp_path)], baseline=baseline)
    assert report2.findings == []
    assert len(report2.baselined) == 1
    assert report2.stale_baseline == []


def test_dead_baseline_entry_is_reported_stale(tmp_path):
    _write(tmp_path, "repro/hierarchy/mod.py", "x = 1\n")
    ghost = "DET001|repro/hierarchy/deleted.py|t = time.time()"
    baseline = Baseline(entries={ghost: "file was removed"})
    report = lint_paths([str(tmp_path)], baseline=baseline)
    # Nothing matches the entry any more: surfaced for pruning, run still ok.
    assert report.stale_baseline == [ghost]
    assert report.findings == []
    assert report.ok


def test_load_baseline_parses_comments_as_justification(tmp_path):
    path = tmp_path / "LINT_BASELINE.txt"
    path.write_text(
        "# header noise\n\n"
        "# this one is fine because reasons\n"
        "DET001|src/repro/x.py|t = time.time()\n",
        encoding="utf-8",
    )
    baseline = load_baseline(str(path))
    assert len(baseline) == 1
    finding = Finding(
        rule_id="DET001", severity=Severity.ERROR, path="src/repro/x.py",
        line=99, col=0, message="m", source_line="t = time.time()",
    )
    assert baseline.matches(finding)
    assert "because reasons" in baseline.justification(finding)


def test_load_missing_baseline_is_empty():
    baseline = load_baseline("/nonexistent/LINT_BASELINE.txt")
    assert len(baseline) == 0


def test_write_baseline_round_trips(tmp_path):
    _write(tmp_path, "repro/hierarchy/mod.py", BAD_SOURCE)
    report = lint_paths([str(tmp_path)])
    out = tmp_path / "LINT_BASELINE.txt"
    count = write_baseline(str(out), report.findings)
    assert count == 1
    reloaded = load_baseline(str(out))
    report2 = lint_paths([str(tmp_path)], baseline=reloaded)
    assert report2.ok


def test_parse_errors_fail_the_run(tmp_path):
    _write(tmp_path, "repro/hierarchy/broken.py", "def f(:\n")
    report = lint_paths([str(tmp_path)])
    assert report.parse_errors and not report.ok


def test_engine_rule_subset():
    engine = LintEngine(rules=[r for r in LintEngine().rules if r.rule_id == "DET003"])
    findings = engine.check_source(
        "src/repro/hierarchy/firewall.py", "import time\nx = 1 / 2\nt = time.time()\n"
    )
    assert [f.rule_id for f in findings] == ["DET003"]


def test_cli_exit_codes(tmp_path):
    _write(tmp_path, "repro/hierarchy/mod.py", BAD_SOURCE)
    bad = _cli(str(tmp_path), "--no-baseline")
    assert bad.returncode == 1
    assert "DET001" in bad.stdout

    clean = _cli(str(tmp_path), "--rules", "LAY001")
    assert clean.returncode == 0, clean.stdout

    as_json = _cli(str(tmp_path), "--no-baseline", "--format", "json")
    assert as_json.returncode == 1
    import json

    payload = json.loads(as_json.stdout)
    assert payload["findings"][0]["rule"] == "DET001"
    assert payload["ok"] is False


def test_cli_github_format_annotations(tmp_path):
    _write(tmp_path, "repro/hierarchy/mod.py", BAD_SOURCE)
    got = _cli(str(tmp_path), "--no-baseline", "--format", "github")
    assert got.returncode == 1
    (line,) = [row for row in got.stdout.splitlines() if row.startswith("::")]
    assert line.startswith("::error file=")
    assert "title=DET001" in line
    assert "mod.py" in line
    assert "line=5" in line
    # Messages must be single-line; the fix hint rides along in brackets.
    assert line.endswith("]") and " [" in line


def test_cli_github_format_clean_tree_exits_zero(tmp_path):
    _write(tmp_path, "repro/hierarchy/mod.py", "x = 1\n")
    got = _cli(str(tmp_path), "--no-baseline", "--format", "github")
    assert got.returncode == 0, got.stdout + got.stderr
    assert "::error" not in got.stdout

