"""Run-report CLI: ``python -m repro.telemetry.report <run.json>``.

Renders whichever sections a run document carries
(:func:`repro.telemetry.export.telemetry_snapshot`: a telemetry dump, a
``BENCH_*.json`` or a ``postmortem_*.json`` bundle): a bundle's reason,
violation and stall reports, the invariant violations, per-hop cross-net
latency percentiles by hierarchy level and direction, end-to-end latency
by route shape, checkpoint anchoring lag, the hottest dispatch labels, the
final health sample of every subnet, and the flight recorder's heads, open
spans and dispatch and trace tails.  A missing or unreadable path exits 1
with a one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.report import Table
from repro.telemetry.export import RUN_SCHEMA
from repro.telemetry.rounds import render_stall_report

#: Lines of the recorder's dispatch and trace tails a report shows.
TAIL = 20

_HOP_PREFIXES = (
    ("xnet.hop.submit.", "submit"),
    ("xnet.hop.topdown.", "topdown"),
    ("xnet.hop.bottomup.", "bottomup"),
)
_INVARIANT_COUNTERS = ("invariant.exactly_once.fork_replays", "invariant.exactly_once.nonce_gaps")
_STATE_GAUGES = ("state.root.buckets_rehashed", "state.root.leaves_encoded", "state.tree.layer_depth")
_E2E_HISTOGRAMS = ("xnet.e2e.topdown", "xnet.e2e.bottomup", "xnet.e2e.path")
_CHECKPOINT_HOPS = ("checkpoint.hop.seal_to_submit", "checkpoint.hop.submit_to_commit")


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


def _present(metrics: dict, names: tuple) -> dict:
    """The metrics of *names* that *metrics* holds, by sorted name."""
    return {name: metrics[name] for name in sorted(names) if name in metrics}


def render(snapshot: dict) -> str:
    sections = []
    sim = snapshot.get("sim", {})
    header = (
        f"run report — sim time {sim.get('now', '?')}s, "
        f"{sim.get('events_executed', '?')} events, seed {sim.get('seed', '?')}"
    )
    if snapshot.get("wall_seconds") is not None:
        header += f", wall {snapshot['wall_seconds']:.2f}s"
    extra = snapshot.get("extra") or {}
    if extra.get("bench"):
        header += f"\nbench: {extra['bench']}"
    if extra.get("state_digest"):
        header += f"\nend-state digest: {extra['state_digest']}"
    if extra.get("reason"):
        header += f"\npostmortem: reason={extra['reason']}"
    violation = extra.get("violation")
    if violation:
        header += (
            f"\nviolation #{violation['seq']} [{violation['auditor']}] "
            f"at t={violation['time']} in {violation['subnet']}: "
            f"{violation['description']}"
        )
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
        sections.append(line)
        if invariants.get("all"):
            table = Table("violations", ["seq", "time", "auditor", "subnet", "description"])
            for v in invariants["all"]:
                table.add_row(v["seq"], v["time"], v["auditor"], v["subnet"], v["description"])
            sections.append(table.render())

    sections.extend(render_stall_report(report) for report in extra.get("stall_reports") or ())

    counters = snapshot.get("counters", {}) or {}
    gauges = snapshot.get("gauges", {}) or {}

    invariant_counters = _present(counters, _INVARIANT_COUNTERS)
    if invariant_counters:
        table = Table("invariant counters", ["counter", "value"])
        for name, value in invariant_counters.items():
            table.add_row(name, value)
        sections.append(table.render())

    caches = _present(gauges, _STATE_GAUGES)
    if caches:
        table = Table("caches & state-root work", ["metric", "value"])
        for name, value in caches.items():
            table.add_row(name, value)
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
        name[len("xnet.e2e."):]: summary
        for name, summary in _present(histograms, _E2E_HISTOGRAMS).items()
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
        if name.startswith("checkpoint.lag") or name in _CHECKPOINT_HOPS
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

    recorder = snapshot.get("recorder") or {}
    heads = recorder.get("heads")
    if heads:
        table = Table("subnet heads", ["subnet", "height", "cid"])
        for path in sorted(heads):
            table.add_row(path, heads[path]["height"], heads[path]["cid"])
        sections.append(table.render())
    open_spans = recorder.get("open_spans")
    if open_spans:
        table = Table("open spans", ["trace", "shape", "to", "value", "last phase"])
        for span in open_spans:
            info = span["info"]
            last = span["events"][-1]["phase"] if span["events"] else "-"
            table.add_row(
                span["trace_id"][:16], info.get("shape"), info.get("to_subnet"),
                info.get("value"), last,
            )
        sections.append(table.render())
    for name, lines in (
        ("dispatch tail", [f"[{t:12.6f}] {label}" for t, label in recorder.get("dispatch_tail") or ()]),
        ("trace tail", recorder.get("trace_tail") or []),
    ):
        if lines:
            shown = lines[-TAIL:]
            sections.append(
                f"-- {name} ({len(shown)} of {len(lines)}) --\n"
                + "\n".join(f"  {line}" for line in shown)
            )

    log = snapshot.get("trace")
    if log:
        sections.append(f"trace log: {log.get('records', 0)} records, digest {log.get('digest')}")

    return "\n\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Render a run document.",
    )
    parser.add_argument("dump", help="path to a run document: a telemetry dump, BENCH_*.json or postmortem_*.json")
    args = parser.parse_args(argv)
    try:
        with open(args.dump, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read run document {args.dump!r}: {exc}", file=sys.stderr)
        return 1
    if snapshot.get("schema") != RUN_SCHEMA:
        print(
            f"warning: unrecognised schema {snapshot.get('schema')!r}; "
            "rendering best-effort", file=sys.stderr,
        )
    try:
        print(render(snapshot))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; suppress the
        # interpreter-shutdown flush error and exit cleanly.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
