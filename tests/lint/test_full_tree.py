"""The acceptance gate: the real tree lints clean, and the protocol's own
state layout and signature rules are each spelled in one module."""

import os
import re

from repro.lint import iter_python_files, lint_paths

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src", "repro")


def test_tree_has_zero_non_baselined_findings():
    report = lint_paths([SRC])
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert report.ok


def test_lint_package_is_itself_clean():
    report = lint_paths([os.path.join(SRC, "lint")])
    assert report.ok and report.findings == []


def _spellings(pattern, home):
    """``path:line`` of every source line under src/repro matching *pattern*
    outside *home* (a path relative to src/repro)."""
    found = []
    for path in iter_python_files([SRC]):
        relative = os.path.relpath(path, SRC).replace(os.sep, "/")
        if relative == home:
            continue
        with open(path, encoding="utf-8") as handle:
            found += [
                f"{relative}:{number}: {line.strip()}"
                for number, line in enumerate(handle, 1)
                if re.search(pattern, line)
            ]
    return found


def test_the_actor_state_layout_is_spelled_in_the_vm_only():
    # Readers outside the VM go through vm.runtime.actor_key and the
    # per-actor readers built on it (gateway.sca_key, subnet_actor's).
    assert _spellings(r"""["']actor/""", home="vm/runtime.py") == []


def test_only_the_signature_policy_branches_on_its_kind():
    pattern = r"""policy\.kind\b|\bkind\s*[!=]=\s*["'](single|multisig|threshold)["']"""
    assert _spellings(pattern, home="hierarchy/subnet_actor.py") == []


def test_only_verify_reads_the_key_table():
    # crypto.keys defines the public -> secret oracle; anything else reading
    # it could forge a tag for any key.
    found = _spellings(r"\bsecret_for_public\b|\b_SECRETS\b", home="crypto/signature.py")
    assert [line for line in found if not line.startswith("crypto/keys.py:")] == []


def test_only_the_engines_read_the_finality_depth():
    # Everything else asks the engine: ConsensusEngine.final_height().
    found = _spellings(r"params\.finality_depth\b", home="consensus/pow.py")
    assert [line for line in found if not line.startswith("consensus/")] == []
