"""CI has one definition (benchmarks/ci.py): the workflows only install and call
it, and its runner reports every step and keeps going past a failure."""

import importlib.util
import re
import sys

from tests.lint.index import ROOT

_spec = importlib.util.spec_from_file_location("ci", ROOT / "benchmarks" / "ci.py")
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)

WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))
RUN = re.compile(r"^(\s*(?:-\s+)?)run:\s*(.*)$")
INSTALL = re.compile(r"python -m pip install( [\w.-]+)+")


def _runs(text):
    """Each ``run:`` value of a workflow, a block scalar's lines joined as YAML
    would join them (``|`` keeps the newlines, ``>`` folds them to spaces)."""
    lines = text.splitlines()
    for number, line in enumerate(lines):
        match = RUN.match(line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2)
        body = []
        for following in lines[number + 1:]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            body.append(following.strip())
        if value.startswith(("|", ">")):
            value = ("\n" if value.startswith("|") else " ").join(body).strip()
        elif any(body):
            value = " ".join([value, *body])
        yield value


def findings(texts, jobs):
    """Every ``run:`` is a pip install or one ``ci.py`` call of a job in *jobs*,
    and every job is called."""
    found, called = [], set()
    for value in (value for text in texts for value in _runs(text)):
        if INSTALL.fullmatch(value):
            continue
        plain = re.sub(r"\$\{\{.*?\}\}", "EXPR", value)  # an expression is one word
        words = plain.split()
        if re.search(r"[\n;&|<>`]|\$\(", plain):
            found.append(f"an inline script: {value!r}")
        elif words[:2] != ["python3", "benchmarks/ci.py"] or len(words) < 3:
            found.append(f"not a ci.py call: {value!r}")
        elif words[2] not in jobs:
            found.append(f"ci.py has no job {words[2]!r}")
        else:
            called.add(words[2])
    found += [f"job {job!r} is never called" for job in sorted(set(jobs) - called)]
    return found


def test_the_workflows_only_install_and_call_each_job_of_ci_py():
    texts = [path.read_text(encoding="utf-8") for path in WORKFLOWS]
    assert [path.name for path in WORKFLOWS] == ["ci.yml", "nightly-campaign.yml"]
    assert findings(texts, ci.jobs()) == []


def test_a_planted_inline_script_or_unknown_job_fails_the_drift_check():
    ci_yml, nightly = (path.read_text(encoding="utf-8") for path in WORKFLOWS)
    inline = ci_yml + "      - run: |\n          cd benchmarks\n          python3 ci.py lint\n"
    assert findings([inline, nightly], ci.jobs()) == [
        "an inline script: 'cd benchmarks\\npython3 ci.py lint'"]
    chained = ci_yml.replace("ci.py lint", "ci.py lint && ruff format --check")
    assert findings([chained, nightly], ci.jobs())[0].startswith("an inline script")
    renamed = ci_yml.replace("ci.py sanitize", "ci.py sanitise")
    assert findings([renamed, nightly], ci.jobs()) == [
        "ci.py has no job 'sanitise'", "job 'sanitize' is never called"]
    assert findings([ci_yml], ci.jobs()) == ["job 'nightly' is never called"]


def _passes(out, log):
    print("passed", file=log)
    return True


def _raises(out, log):
    raise KeyError("no such field")


def test_the_runner_reports_each_step_and_keeps_going_past_a_failure(tmp_path, capsys):
    python = sys.executable
    table = {
        "first": (
            ci.Step("exits-3", ci.command(python, "-c", "print('{out}'); raise SystemExit(3)")),
            ci.Step("raises", _raises),
            ci.Step("after", _passes),
            ci.Step("tool", _passes, needs="no-such-tool-here"),
            ci.Step("publish", _passes, after_failure=True),
        ),
        "second": (ci.Step("clean", _passes), ci.Step("publish", _passes, after_failure=True)),
    }
    assert ci.run(table, ["first", "second"], root=tmp_path) == 1
    lines = [line.rsplit(" (", 1)[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith(("first ", "second ", "ci: "))]
    assert lines == [
        "first exits-3: FAILED", "first raises: FAILED", "first after: ok",
        "first tool: skipped: no-such-tool-here is not installed", "first publish: ok",
        "second clean: ok", "second publish: skipped: no earlier step failed",
        "ci: 7 steps, 3 ok, 2 FAILED, 2 skipped",
    ]
    assert (tmp_path / "first" / "exits-3.log").read_text() == f"{tmp_path / 'first'}\n"
    assert "KeyError: 'no such field'" in (tmp_path / "first" / "raises.log").read_text()
    assert ci.run({"second": table["second"]}, ["second"], root=tmp_path) == 0
