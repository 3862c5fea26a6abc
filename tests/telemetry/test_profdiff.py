"""Profdiff CLI: golden output + document-shape handling + error paths.

The inputs are run documents carrying hand-written ``profile`` sections
(no sampling involved), so the rendered culprit report is
byte-deterministic and lives as a golden file.  Regenerate with
``UPDATE_GOLDENS=1 pytest tests/telemetry/test_profdiff.py``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.telemetry import diff_profiles, render_diff
from repro.telemetry.profdiff import (
    ProfDiffError,
    load_profile,
    main as profdiff_main,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _profile(samples, active_s, labels):
    """A minimal profile section: {label: (samples, alloc, frames)}."""
    return {
        "interval_s": 0.005,
        "memory": False,
        "samples": samples,
        "active_s": active_s,
        "sampler_s": 0.01,
        "labels": {
            label: {
                "samples": count,
                "cpu_share": count / samples,
                "alloc_bytes": alloc,
                "alloc_events": count,
                "top_frames": frames,
            }
            for label, (count, alloc, frames) in labels.items()
        },
        "mem": {"rss_bytes": 1, "rss_peak_bytes": 1, "rss_points": 2,
                "allocated_blocks": 1},
    }


# Baseline: consensus-heavy.  Candidate: state-root work doubled (the
# "regression" profdiff must rank first) while consensus share shrank.
OLD = _profile(1000, 10.0, {
    "poa:/root#0": (600, 4096, [["repro/consensus/poa.py:_on_slot", 500],
                                ["repro/runtime/node.py:assemble_block", 100]]),
    "state:root": (250, 8192, [["repro/storage/statetree.py:root", 250]]),
    "gossip:heartbeat": (150, 1024, [["repro/net/gossip.py:beat", 150]]),
})
NEW = _profile(2000, 10.0, {
    "poa:/root#0": (900, 8192, [["repro/consensus/poa.py:_on_slot", 700],
                                ["repro/runtime/node.py:assemble_block", 200]]),
    "state:root": (1000, 65536, [["repro/storage/statetree.py:root", 900],
                                 ["repro/storage/statetree.py:_rehash", 100]]),
    "ckpt:seal": (100, 2048, [["repro/hierarchy/checkpoint.py:seal", 100]]),
})


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    golden = path.read_text(encoding="utf-8")
    assert text == golden, f"{name} drifted from golden (UPDATE_GOLDENS=1 to accept)"


def _write(tmp_path, name, profile=None):
    """A bench's run document at *name*, profiled when *profile* is given."""
    document = {"schema": "repro.run/v1", "extra": {"bench": "x", "rows": []}}
    if profile is not None:
        document["profile"] = profile
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_diff_ranks_regressions_first():
    diff = diff_profiles(OLD, NEW)
    assert diff["schema"] == "repro.profdiff/v1"
    rows = {row["label"]: row for row in diff["labels"]}
    # state:root grew 25% -> 50%: the worst regression leads the table.
    assert diff["labels"][0]["label"] == "state:root"
    assert rows["state:root"]["delta_share"] == pytest.approx(0.25)
    assert rows["state:root"]["delta_alloc_bytes"] == 65536 - 8192
    # gossip:heartbeat vanished: present with new share 0.
    assert rows["gossip:heartbeat"]["new_share"] == 0.0
    # ckpt:seal is new: old share 0.
    assert rows["ckpt:seal"]["old_share"] == 0.0
    # Frames: statetree.py:root grew from 25% to 45% of samples.
    assert diff["frames"][0]["frame"] == "repro/storage/statetree.py:root"
    assert diff["frames"][0]["delta_share"] == pytest.approx(0.45 - 0.25)


def test_cli_golden_report(tmp_path, capsys):
    old = _write(tmp_path, "old.json", OLD)
    new = _write(tmp_path, "new.json", NEW)
    assert profdiff_main([old, new]) == 0
    _check_golden("profdiff.txt", capsys.readouterr().out)


def test_cli_json_flag_round_trips(tmp_path, capsys):
    old = _write(tmp_path, "old.json", OLD)
    new = _write(tmp_path, "new.json", NEW)
    assert profdiff_main([old, new, "--json"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff == diff_profiles(OLD, NEW)
    assert diff["old"]["samples"] == 1000 and diff["new"]["samples"] == 2000


def test_cli_top_truncates_tables(tmp_path, capsys):
    old = _write(tmp_path, "old.json", OLD)
    new = _write(tmp_path, "new.json", NEW)
    assert profdiff_main([old, new, "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "state:root" in out  # worst regression survives the cut
    assert "gossip:heartbeat" not in out


def test_accepts_bench_and_trajectory_wrappers(tmp_path):
    """A bench's run document is read for its profile section; a bare
    profile, outside a run document, is not one."""
    assert load_profile(_write(tmp_path, "b.json", OLD)) == OLD
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(OLD), encoding="utf-8")
    with pytest.raises(ProfDiffError, match="no profile section"):
        load_profile(str(bare))


def test_no_regressed_frames_message():
    # New run strictly improved: every frame shrank.
    improved = _profile(1000, 10.0, {
        "state:root": (100, 0, [["repro/storage/statetree.py:root", 100]]),
        "poa:/root#0": (300, 0, [["repro/consensus/poa.py:_on_slot", 300]]),
    })
    shrunk = diff_profiles(NEW, improved)
    assert "no regressed frames" in render_diff(shrunk)


def test_cli_missing_file_exits_2(tmp_path, capsys):
    assert profdiff_main([str(tmp_path / "absent.json"), str(tmp_path / "b.json")]) == 2
    err = capsys.readouterr().err
    assert "profdiff: error: cannot read" in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


def test_cli_unprofiled_input_exits_2(tmp_path, capsys):
    bare = _write(tmp_path, "bare.json")
    new = _write(tmp_path, "new.json", NEW)
    assert profdiff_main([bare, new]) == 2
    assert "carries no profile section" in capsys.readouterr().err


def test_load_profile_raises_typed_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProfDiffError):
        load_profile(str(path))
