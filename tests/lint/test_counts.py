"""The counts gate (benchmarks/counts.py) on canned ``run.py`` output."""

import importlib.util
import json
import os

_spec = importlib.util.spec_from_file_location(
    "counts", os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "counts.py"))
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)


def _gate(tmp_path, *argv, calls=10, correct=True, code=0):
    metrics = {
        "sim.calls": {"value": calls, "unit": "count"},
        "commit_p50_sim_s": {"value": 0.25, "unit": "sim_s"},
        "sim.self_share": {"value": 0.3, "unit": "ratio"},
        "trace.host_slowdown": {"value": 1.1, "unit": "ratio"},
        "probe.sim.push_pop_us": {"value": 1.5, "unit": "us"},
    }
    stdout = "\n".join([
        "== by-layer table",
        "detail: " + json.dumps({"deterministic": {"digest": "ab", "region_blocks": 7}}),
        json.dumps({"correct": correct, "metrics": metrics}),
    ])
    return counts.main(list(argv), run=lambda _w: (code, stdout), table=str(tmp_path / "T.json"))


def test_update_round_trips_and_a_count_off_by_one_fails_by_name(tmp_path, capsys):
    assert _gate(tmp_path, "--update") == 0
    with open(tmp_path / "T.json", encoding="utf-8") as handle:
        table = json.load(handle)
    assert set(table) == set(counts.WORKLOADS)
    kept = {"digest": "ab", "region_blocks": 7, "sim.calls": 10, "commit_p50_sim_s": 0.25}
    assert table["pay-k8"] == kept
    assert _gate(tmp_path) == 0
    assert _gate(tmp_path, calls=11) == 1
    assert "bft-votes sim.calls: committed 10, measured 11" in capsys.readouterr().out


def test_an_incorrect_or_failed_run_fails_and_never_becomes_the_table(tmp_path):
    assert _gate(tmp_path, correct=False) == 1
    assert _gate(tmp_path, "--update", code=1) == 1
    assert not (tmp_path / "T.json").exists()


def test_a_row_missing_on_either_side_is_a_difference():
    assert counts.differences({"w": {"a": 1, "b": 2}}, {"w": {"a": 1}}) == [
        "w b: committed 2, measured 'absent'"
    ]
    assert len(counts.differences({"w": {"a": 1}}, {"w": {"a": 1}, "v": {"c": 3}})) == 1


def test_the_committed_table_holds_five_workloads_and_no_wall_clock_row():
    with open(counts.TABLE, encoding="utf-8") as handle:
        table = json.load(handle)
    assert set(table) == set(counts.WORKLOADS)
    for workload, rows in table.items():
        assert len(rows) > 50, workload
        assert not [
            name for name in rows
            if name.endswith("_share") or name.startswith(("trace.", "probe."))
            or (name.endswith("_s") and not name.endswith("_sim_s"))
        ]
