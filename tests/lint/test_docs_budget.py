"""The documents' budget holds itself: CHANGES.md is one ``- PR N:`` line
per PR, and from PR 16 on each line is at most 2 000 bytes of UTF-8 (what
``wc -c`` counts); DESIGN.md is at most 900 lines.  Raw numbers belong in
``benchmarks/PAIRS.json`` and in git history, not in an entry."""

import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
FIRST_BUDGETED_PR = 16
ENTRY_BYTES = 2000
DESIGN_LINES = 900


def _lines(name: str) -> list:
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return handle.read().splitlines()


def test_changes_is_one_short_line_per_pr():
    seen = set()
    for line in filter(None, _lines("CHANGES.md")):
        match = re.match(r"- PR (\d+): ", line)
        assert match, f"not a '- PR N: ' entry: {line[:80]!r}"
        number = int(match.group(1))
        assert number not in seen, f"PR {number} has more than one entry"
        seen.add(number)
        if number >= FIRST_BUDGETED_PR:
            size = len(line.encode("utf-8"))
            assert size <= ENTRY_BYTES, f"PR {number}'s entry is {size} bytes"


def test_design_stays_within_its_line_budget():
    assert len(_lines("DESIGN.md")) <= DESIGN_LINES
