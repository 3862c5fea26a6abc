"""Run-report CLI: ``python -m repro.telemetry.report <dump.json>``.

Renders a human-readable summary from a telemetry JSON dump produced by
:func:`repro.telemetry.export.telemetry_snapshot` / ``write_json`` (the
benchmarks write one next to their ``BENCH_*.json``): per-hop cross-net
latency percentiles by hierarchy level and direction, end-to-end latency
by route shape, checkpoint anchoring lag, the hottest dispatch labels,
and the final health sample of every subnet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.report import Table

_HOP_PREFIXES = (
    ("xnet.hop.submit.", "submit"),
    ("xnet.hop.topdown.", "topdown"),
    ("xnet.hop.bottomup.", "bottomup"),
)


def _fmt(value) -> str:
    if value is None:
        return "-"
    return value


def _latency_rows(histograms: dict) -> list:
    """(kind, level, summary) rows for every per-level hop histogram."""
    rows = []
    for name in sorted(histograms):
        for prefix, kind in _HOP_PREFIXES:
            if name.startswith(prefix) and name[len(prefix):].startswith("L"):
                rows.append((kind, name[len(prefix):], histograms[name]))
    return rows


def _invariant_counters(counters: dict) -> dict:
    return {
        name: counters[name]
        for name in sorted(counters)
        if name.startswith("invariant.")
    }


def _cache_stats(gauges: dict) -> dict:
    """State-root work gauges."""
    return {
        name: gauges[name]
        for name in sorted(gauges)
        if name.startswith("state.root.") or name.startswith("state.tree.")
    }


def summarize(snapshot: dict) -> dict:
    """The report's content as plain data — what ``--json`` emits."""
    histograms = snapshot.get("histograms", {})
    counters = snapshot.get("counters", {}) or {}
    gauges = snapshot.get("gauges", {}) or {}
    return {
        "sim": snapshot.get("sim", {}),
        "wall_seconds": snapshot.get("wall_seconds"),
        "spans": snapshot.get("spans"),
        "invariants": snapshot.get("invariants"),
        "invariant_counters": _invariant_counters(counters),
        "caches": _cache_stats(gauges),
        "profile": snapshot.get("profile"),
        "rounds": snapshot.get("rounds"),
        "round_histograms": {
            name: histograms[name]
            for name in sorted(histograms)
            if name.startswith("consensus.round.")
        },
        "hops": [
            {"hop": kind, "level": level, **summary}
            for kind, level, summary in _latency_rows(histograms)
        ],
        "e2e": {
            name[len("xnet.e2e."):]: histograms[name]
            for name in sorted(histograms)
            if name.startswith("xnet.e2e.")
        },
        "checkpoints": {
            name: histograms[name]
            for name in sorted(histograms)
            if name.startswith("checkpoint.lag") or name.startswith("checkpoint.hop.")
        },
        "dispatch": (snapshot.get("dispatch") or [])[:10],
        "health": snapshot.get("health"),
        "trace_log": snapshot.get("trace_log"),
    }


def render(snapshot: dict) -> str:
    sections = []
    sim = snapshot.get("sim", {})
    header = (
        f"telemetry report — sim time {sim.get('now', '?')}s, "
        f"{sim.get('events_executed', '?')} events, seed {sim.get('seed', '?')}"
    )
    if snapshot.get("wall_seconds") is not None:
        header += f", wall {snapshot['wall_seconds']:.2f}s"
    sections.append(header)

    spans = snapshot.get("spans")
    if spans:
        sections.append(
            f"cross-net spans: {spans.get('traces', 0)} traced, "
            f"{spans.get('delivered', 0)} delivered, "
            f"{spans.get('failed', 0)} failed, "
            f"{spans.get('in_flight', 0)} in flight; "
            f"{spans.get('checkpoints', 0)} checkpoints observed"
        )

    invariants = snapshot.get("invariants")
    if invariants:
        line = (
            f"invariants: {invariants.get('violations', 0)} violation(s) across "
            f"{len(invariants.get('auditors', []))} auditors"
        )
        by_auditor = invariants.get("by_auditor") or {}
        if by_auditor:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(by_auditor.items()))
            line += f" ({detail})"
        latest = invariants.get("latest")
        if latest:
            line += (
                f"\nlatest: [{latest.get('auditor')}] t={latest.get('time')} "
                f"{latest.get('subnet')}: {latest.get('description')}"
            )
        sections.append(line)

    counters = snapshot.get("counters", {}) or {}
    gauges = snapshot.get("gauges", {}) or {}

    invariant_counters = _invariant_counters(counters)
    if invariant_counters:
        table = Table("invariant counters", ["counter", "value"])
        for name, value in invariant_counters.items():
            table.add_row(name, value)
        sections.append(table.render())

    caches = _cache_stats(gauges)
    if caches:
        table = Table("caches & state-root work", ["metric", "value"])
        for name, value in caches.items():
            table.add_row(name, value)
        sections.append(table.render())

    profile = snapshot.get("profile")
    if profile:
        labels = profile.get("labels") or {}
        table = Table(
            f"CPU profile — {profile.get('samples', 0)} samples "
            f"@ {profile.get('interval_s', '?')}s over "
            f"{(profile.get('active_s') or 0.0):.2f}s wall",
            ["label", "samples", "cpu %", "alloc KiB", "hottest frame"],
        )
        for label, row in list(labels.items())[:12]:
            top = row.get("top_frames") or []
            table.add_row(
                label,
                row.get("samples", 0),
                row.get("cpu_share", 0.0) * 100,
                row.get("alloc_bytes", 0) / 1024,
                top[0][0] if top else "-",
            )
        sections.append(table.render())

    histograms = snapshot.get("histograms", {})

    rounds = snapshot.get("rounds")
    if rounds and rounds.get("subnets"):
        table = Table(
            "consensus rounds per subnet",
            ["subnet", "frontier", "quorum", "prevote", "precommit",
             "skips", "timeouts", "rounds/height p95"],
        )
        for path in sorted(rounds["subnets"]):
            entry = rounds["subnets"][path]
            counts = entry.get("counts") or {}
            per_height = histograms.get(f"consensus.round.{path}.per_height") or {}
            frontier = (
                f"h{entry.get('frontier_height')} r{entry.get('frontier_round')}"
                if entry.get("frontier_height") is not None else "-"
            )
            table.add_row(
                path, frontier,
                _fmt(entry.get("quorum_power")),
                _fmt(entry.get("prevote_power")),
                _fmt(entry.get("precommit_power")),
                counts.get("round_skip", 0),
                counts.get("timeout", 0),
                _fmt(per_height.get("p95")),
            )
        sections.append(table.render())

    hop_rows = _latency_rows(histograms)
    if hop_rows:
        table = Table(
            "cross-net hop latency by hierarchy level (simulated seconds)",
            ["hop", "level", "count", "p50", "p95", "p99", "max"],
        )
        for kind, level, summary in hop_rows:
            table.add_row(
                kind, level, summary["count"], _fmt(summary["p50"]),
                _fmt(summary["p95"]), _fmt(summary["p99"]), _fmt(summary["max"]),
            )
        sections.append(table.render())

    e2e = {
        name[len("xnet.e2e."):]: histograms[name]
        for name in sorted(histograms)
        if name.startswith("xnet.e2e.")
    }
    if e2e:
        table = Table(
            "end-to-end cross-net latency by route shape (simulated seconds)",
            ["route", "count", "p50", "p95", "p99", "max"],
        )
        for shape, summary in e2e.items():
            table.add_row(
                shape, summary["count"], _fmt(summary["p50"]),
                _fmt(summary["p95"]), _fmt(summary["p99"]), _fmt(summary["max"]),
            )
        sections.append(table.render())

    ckpt = {
        name: histograms[name]
        for name in sorted(histograms)
        if name.startswith("checkpoint.lag") or name.startswith("checkpoint.hop.")
    }
    if ckpt:
        table = Table(
            "checkpoint anchoring (simulated seconds)",
            ["metric", "count", "p50", "p95", "p99", "max"],
        )
        for name, summary in ckpt.items():
            table.add_row(
                name, summary["count"], _fmt(summary["p50"]),
                _fmt(summary["p95"]), _fmt(summary["p99"]), _fmt(summary["max"]),
            )
        sections.append(table.render())

    dispatch = snapshot.get("dispatch") or []
    if dispatch:
        table = Table(
            "hottest dispatch labels (wall clock)",
            ["label", "events", "wall_s", "mean_us"],
        )
        for row in dispatch[:10]:
            table.add_row(
                row["label"], row["events"], row["wall_s"], row["mean_s"] * 1e6
            )
        sections.append(table.render())

    health = snapshot.get("health")
    if health:
        table = Table(
            "final health sample per subnet",
            ["subnet", "height", "mempool", "pending xnet", "ckpt lag"],
        )
        for path in sorted(health):
            sample = health[path]
            table.add_row(
                path, sample.get("height"), sample.get("mempool"),
                sample.get("pending_crossmsgs"), _fmt(sample.get("checkpoint_lag")),
            )
        sections.append(table.render())

    log = snapshot.get("trace_log")
    if log:
        line = f"trace log: {log.get('records', 0)} records"
        if log.get("dropped"):
            line += f" ({log['dropped']} dropped at capacity)"
        sections.append(line)

    return "\n\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Render a run summary from a telemetry JSON dump.",
    )
    parser.add_argument("dump", help="path to a telemetry JSON dump (see repro.telemetry.export.write_json)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the parsed summary as JSON instead of tables",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.dump, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read telemetry dump {args.dump!r}: {exc}", file=sys.stderr)
        return 1
    if snapshot.get("schema") != "repro.telemetry/v1":
        print(
            f"warning: unrecognised schema {snapshot.get('schema')!r}; "
            "rendering best-effort", file=sys.stderr,
        )
    try:
        if args.json:
            print(json.dumps(summarize(snapshot), indent=2, allow_nan=False))
        else:
            print(render(snapshot))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; suppress the
        # interpreter-shutdown flush error and exit cleanly.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
