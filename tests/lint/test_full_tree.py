"""The acceptance gate: the real tree breaks no determinism rule
(``rules.py``) but the allowed one, and the protocol's own state layout and
signature rules are each spelled in one module."""

import ast
import re

import pytest

from tests.lint.index import Module, parse, under
from tests.lint.rules import ALLOWED, findings


def unexplained(index: dict, allowed=ALLOWED) -> list:
    """One line per finding over ``src/repro`` that *allowed* does not list,
    and one per entry of *allowed* that matches no finding."""
    src = under(index, "src/repro/")
    left, matched = [], set()
    for path, line, rule, message in findings({path: module.tree for path, module in src.items()}):
        key = (path, rule, src[path].text.splitlines()[line - 1].strip())
        if key in allowed:
            matched.add(key)
        else:
            left.append(f"src/repro/{path}:{line}: {rule} {message}")
    return left + [f"stale allow-list entry: {key}" for key in allowed if key not in matched]


def test_the_tree_has_no_finding_but_the_allowed_one(index):
    assert unexplained(index) == [], "each rule's docstring in tests/lint/rules.py says the fix"


def test_a_planted_finding_and_a_stale_allow_list_entry_fail():
    text = "def poke(sim):\n    sim.queue.push(1.0, print)\n"
    allowed = {("net/mod.py", "SIM001", "push = sim.queue.push"): "hoisted once; now gone"}
    assert unexplained({"src/repro/net/mod.py": Module(text, ast.parse(text))}, allowed) == [
        "src/repro/net/mod.py:2: SIM001 queue.push bypasses the dispatch bus",
        "stale allow-list entry: ('net/mod.py', 'SIM001', 'push = sim.queue.push')",
    ]


def test_a_file_that_does_not_parse_fails(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "broken.py").write_text("def f(:\n")
    with pytest.raises(SyntaxError):
        parse(tmp_path)


def _spellings(index, pattern, home):
    """``path:line`` of every source line under src/repro matching *pattern*
    outside *home* (a path relative to src/repro)."""
    return [
        f"{path}:{number}: {line.strip()}"
        for path, module in under(index, "src/repro/").items() if path != home
        for number, line in enumerate(module.text.splitlines(), 1) if re.search(pattern, line)
    ]


def test_the_actor_state_layout_is_spelled_in_the_vm_only(index):
    # Readers outside the VM go through vm.runtime.actor_key and the
    # per-actor readers built on it (gateway.sca_key, subnet_actor's).
    assert _spellings(index, r"""["']actor/""", home="vm/runtime.py") == []


def test_only_the_signature_policy_branches_on_its_kind(index):
    pattern = r"""policy\.kind\b|\bkind\s*[!=]=\s*["'](single|multisig|threshold)["']"""
    assert _spellings(index, pattern, home="hierarchy/subnet_actor.py") == []


def test_only_verify_reads_the_key_table(index):
    # crypto.keys defines the public key -> key pair table; anything else
    # reading it could forge a tag for any key.
    found = _spellings(index, r"\bkey_for_public\b|\b_KEYS\b", home="crypto/signature.py")
    assert [line for line in found if not line.startswith("crypto/keys.py:")] == []


def test_only_the_engines_read_the_finality_depth(index):
    # Everything else asks the engine: ConsensusEngine.final_height().
    found = _spellings(index, r"params\.finality_depth\b", home="consensus/pow.py")
    assert [line for line in found if not line.startswith("consensus/")] == []
