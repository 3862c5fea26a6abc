"""``run.py --compare A.json B.json``: per-row verdicts between two ledgers.

A row is one (workload, end-to-end metric).  Verdicts follow the
choosing-metrics guide: a row whose run-to-run spread (inter-quartile range
over median, the wider of the two sides) exceeds the metric's bound is
``unresolved`` — never ``unchanged``; otherwise it is ``regressed`` when B's
median is worse than A's by more than the bound, ``improved`` when it is
better by more than the spread, else ``unchanged``.
"""

from __future__ import annotations

import json
import statistics

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = (
    "improved", "unchanged", "regressed", "unresolved",
)

#: Bounds of the workload-specific end-to-end metrics, which the driver's
#: contract (every workload reports every gated metric) keeps out of
#: ``BENCHMARK.json``'s ``end_to_end`` list.  Relative unless ``absolute``;
#: ``on`` names the one workload that defines the metric (default: all).
SPECIFIC_BOUNDS = {
    "failed_ops_ratio": {"better": "lower", "bound": 0.001, "absolute": True},
    "max_service_gap_sim_s": {"better": "lower", "bound": 0.05, "on": "fault-heal"},
    "recovery_sim_s": {"better": "lower", "bound": 0.05, "on": "fault-heal"},
    **{
        f"xnet_{route}_{q}_sim_s": {"better": "lower", "bound": 0.05, "on": "xnet-deep"}
        for route in ("topdown", "bottomup", "path")
        for q in ("p50", "p99")
    },
}


def load_bounds(benchmark_json_path: str) -> dict:
    """metric -> {"better", "bound"[, "absolute"]} for every compared row."""
    with open(benchmark_json_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {
        metric["name"]: {"better": metric["better"], "bound": metric["bound"]}
        for metric in spec["end_to_end"]
    }
    bounds.update(SPECIFIC_BOUNDS)
    return bounds


def summarize(values: list) -> dict:
    """median / quartiles / count of one metric's repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def verdict(a: dict, b: dict, better: str, bound: float, absolute: bool = False) -> tuple:
    """(verdict, signed change where positive = B better, spread)."""
    scale_a = 1.0 if absolute else abs(a["median"])
    scale_b = 1.0 if absolute else abs(b["median"])
    if not absolute and (scale_a == 0 or scale_b == 0):
        # A metric that does not apply to the workload reads 0 on both sides.
        same = a["median"] == b["median"]
        return (UNCHANGED if same else UNRESOLVED), 0.0, 0.0
    spread = max((a["q3"] - a["q1"]) / scale_a, (b["q3"] - b["q1"]) / scale_b)
    change = (b["median"] - a["median"]) / scale_a
    if better == "lower":
        change = -change
    if spread > bound:
        return UNRESOLVED, change, spread
    if change < -bound:
        return REGRESSED, change, spread
    if change > spread and change > 0:
        return IMPROVED, change, spread
    return UNCHANGED, change, spread


def compare(ledger_a: dict, ledger_b: dict, bounds: dict) -> tuple:
    """(rows, deterministic mismatches) between two ledger documents."""
    rows = []
    mismatches = []
    for workload, entry_a in ledger_a["workloads"].items():
        entry_b = ledger_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, rule in bounds.items():
            a = entry_a["end_to_end"].get(metric)
            b = entry_b["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            outcome, change, spread = verdict(
                a, b, rule["better"], rule["bound"], rule.get("absolute", False)
            )
            rows.append(
                {
                    "workload": workload, "metric": metric, "a": a, "b": b,
                    "change": change, "spread": spread, "bound": rule["bound"],
                    "verdict": outcome,
                }
            )
        for key, value in entry_a["deterministic"].items():
            if entry_b["deterministic"].get(key) != value:
                mismatches.append((workload, key, value, entry_b["deterministic"].get(key)))
    return rows, mismatches


def render(rows: list, mismatches: list) -> str:
    header = (
        f"{'workload':<11} {'metric':<26} {'A median':>12} {'A iqr':>10} "
        f"{'B median':>12} {'B iqr':>10} {'change':>8} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<11} {row['metric']:<26} {a['median']:>12.5g} "
            f"{a['q3'] - a['q1']:>10.3g} {b['median']:>12.5g} {b['q3'] - b['q1']:>10.3g} "
            f"{row['change']:>+8.3f} {row['bound']:>6.3f}  {row['verdict']}"
        )
    counts = {name: 0 for name in (IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED)}
    for row in rows:
        counts[row["verdict"]] += 1
    lines.append("")
    lines.append("  ".join(f"{name}: {count}" for name, count in counts.items()))
    if mismatches:
        lines.append(f"deterministic fields that differ ({len(mismatches)}):")
        for workload, key, a, b in mismatches:
            lines.append(f"  {workload} {key}: {a} != {b}")
    else:
        lines.append("every simulated-time metric, count and digest is identical")
    return "\n".join(lines)
