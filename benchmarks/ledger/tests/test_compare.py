"""The compare-verdict table on hand-made inputs."""

import json

import pytest

from compare import (
    IMPROVED,
    REGRESSED,
    UNCHANGED,
    UNRESOLVED,
    compare,
    load_bounds,
    render,
    summarize,
    verdict,
)


def stats(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2, "n": 5}


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        # higher is better, bound 10%
        (stats(100, 2), stats(100.5, 2), "higher", 0.10, UNCHANGED),
        (stats(100, 2), stats(85, 2), "higher", 0.10, REGRESSED),
        (stats(100, 2), stats(95, 2), "higher", 0.10, UNCHANGED),  # worse, within bound
        (stats(100, 2), stats(110, 2), "higher", 0.10, IMPROVED),
        (stats(100, 2), stats(101, 2), "higher", 0.10, UNCHANGED),  # gain inside the spread
        (stats(100, 30), stats(85, 2), "higher", 0.10, UNRESOLVED),  # A too noisy to say
        (stats(100, 2), stats(85, 30), "higher", 0.10, UNRESOLVED),  # B too noisy to say
        # lower is better, bound 5%; deterministic metrics have no spread
        (stats(2.0), stats(2.0), "lower", 0.05, UNCHANGED),
        (stats(2.0), stats(2.2), "lower", 0.05, REGRESSED),
        (stats(2.0), stats(1.99), "lower", 0.05, IMPROVED),
        (stats(2.0), stats(2.05), "lower", 0.05, UNCHANGED),
        # a metric that does not apply reads 0 on both sides
        (stats(0.0), stats(0.0), "lower", 0.05, UNCHANGED),
    ],
)
def test_verdict_table(a, b, better, bound, expected):
    assert verdict(a, b, better, bound)[0] == expected


def test_absolute_bound_for_the_failure_ratio():
    assert verdict(stats(0.0), stats(0.0), "lower", 0.001, absolute=True)[0] == UNCHANGED
    assert verdict(stats(0.0), stats(0.0005), "lower", 0.001, absolute=True)[0] == UNCHANGED
    assert verdict(stats(0.0), stats(0.01), "lower", 0.001, absolute=True)[0] == REGRESSED


def test_summarize_uses_the_drivers_quartiles():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def _ledger(rate, p99, digest="d1"):
    return {
        "workloads": {
            "pay-k8": {
                "end_to_end": {
                    "blocks_per_wall_s": stats(rate, 4),
                    "commit_p99_sim_s": stats(p99),
                    "failed_ops_ratio": stats(0.0),
                },
                "deterministic": {"digest": digest, "region_blocks": 10},
            }
        }
    }


def test_compare_rows_and_deterministic_mismatches(tmp_path):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({
        "end_to_end": [
            {"name": "blocks_per_wall_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "commit_p99_sim_s", "unit": "sim_s", "better": "lower", "bound": 0.05},
        ]
    }))
    bounds = load_bounds(str(spec))
    rows, mismatches = compare(_ledger(200, 0.5), _ledger(150, 0.5, digest="d2"), bounds)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "blocks_per_wall_s": REGRESSED,
        "commit_p99_sim_s": UNCHANGED,
        "failed_ops_ratio": UNCHANGED,
    }
    assert mismatches == [("pay-k8", "digest", "d1", "d2")]
    text = render(rows, mismatches)
    assert "regressed: 1" in text and "digest: d1 != d2" in text
    rows, mismatches = compare(_ledger(200, 0.5), _ledger(201, 0.5), bounds)
    assert {row["verdict"] for row in rows} == {UNCHANGED} and not mismatches
