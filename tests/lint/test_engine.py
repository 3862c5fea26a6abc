"""Engine and CLI behaviour."""

import os
import subprocess
import sys

from repro.lint import LintEngine, lint_paths

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
    bad = _cli(str(tmp_path))
    assert bad.returncode == 1
    assert "DET001" in bad.stdout

    clean = _cli(str(tmp_path), "--rules", "LAY001")
    assert clean.returncode == 0, clean.stdout

    as_json = _cli(str(tmp_path), "--format", "json")
    assert as_json.returncode == 1
    import json

    payload = json.loads(as_json.stdout)
    assert payload["findings"][0]["rule"] == "DET001"
    assert payload["ok"] is False


def test_cli_github_format_annotations(tmp_path):
    _write(tmp_path, "repro/hierarchy/mod.py", BAD_SOURCE)
    got = _cli(str(tmp_path), "--format", "github")
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
    got = _cli(str(tmp_path), "--format", "github")
    assert got.returncode == 0, got.stdout + got.stderr
    assert "::error" not in got.stdout

