"""Render a flight-recorder postmortem bundle for human eyes.

Usage::

    python -m repro.telemetry.postmortem postmortem_s600_000.json
    python -m repro.telemetry.postmortem bundle.json --tail 40

The bundle is produced by :class:`repro.telemetry.recorder.FlightRecorder`
(schema ``repro.postmortem/v1``) when an invariant violation fires or a
benchmark dies.  Like ``repro.telemetry.report``, a missing or unreadable
path exits 1 with a one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.analysis.report import Table

_SCHEMA = "repro.postmortem/v1"


def render(bundle: dict, tail: int = 20) -> str:
    """Human-readable multi-section view of a postmortem bundle."""
    out: list[str] = []
    sim = bundle.get("sim", {})
    out.append(
        f"postmortem: reason={bundle.get('reason')} "
        f"t={sim.get('now')} seed={sim.get('seed')} "
        f"events={sim.get('events_executed')}"
    )

    violation = bundle.get("violation")
    if violation:
        out.append("")
        out.append(
            f"violation #{violation.get('seq')} [{violation.get('auditor')}] "
            f"at t={violation.get('time')} in {violation.get('subnet')}:"
        )
        out.append(f"  {violation.get('description')}")

    violations = bundle.get("violations") or []
    if violations:
        table = Table("violations", ["seq", "time", "auditor", "subnet", "description"])
        for v in violations:
            table.add_row(
                v.get("seq"), v.get("time"), v.get("auditor"),
                v.get("subnet"), v.get("description"),
            )
        out.append("")
        out.append(table.render())

    stall_reports = bundle.get("stall_reports") or []
    if stall_reports:
        from repro.telemetry.rounds import render_stall_report

        for report in stall_reports:
            out.append("")
            out.append(render_stall_report(report))

    heads = bundle.get("heads") or {}
    if heads:
        table = Table("subnet heads", ["subnet", "height", "cid"])
        for path in sorted(heads):
            table.add_row(path, heads[path].get("height"), heads[path].get("cid"))
        out.append("")
        out.append(table.render())

    spans = bundle.get("open_spans") or []
    if spans:
        table = Table("open spans", ["trace", "shape", "to", "value", "last phase"])
        for span in spans:
            info = span.get("info", {})
            events = span.get("events") or []
            last = events[-1]["phase"] if events else "-"
            table.add_row(
                str(span.get("trace_id", ""))[:16], info.get("shape"),
                info.get("to_subnet"), info.get("value"), last,
            )
        out.append("")
        out.append(table.render())

    health = bundle.get("health_recent") or []
    if health:
        table = Table(
            "last health sample",
            ["subnet", "height", "mempool", "pending xmsgs", "ckpt lag"],
        )
        latest = health[-1]
        for path in sorted(latest):
            sample = latest[path]
            table.add_row(
                path, sample.get("height"), sample.get("mempool"),
                sample.get("pending_crossmsgs"), sample.get("checkpoint_lag"),
            )
        out.append("")
        out.append(table.render())

    dispatch = bundle.get("dispatch_recent") or []
    if dispatch:
        out.append("")
        out.append(f"-- dispatch tail ({min(tail, len(dispatch))} of {len(dispatch)}) --")
        for time, label in dispatch[-tail:]:
            out.append(f"  [{time:12.6f}] {label}")

    trace = bundle.get("trace_tail") or []
    if trace:
        out.append("")
        out.append(f"-- trace tail ({min(tail, len(trace))} of {len(trace)}) --")
        out.extend(f"  {line}" for line in trace[-tail:])

    return "\n".join(out)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.postmortem",
        description="Render a flight-recorder postmortem bundle.",
    )
    parser.add_argument("bundle", help="path to a postmortem_*.json bundle")
    parser.add_argument(
        "--tail", type=int, default=20,
        help="how many trace/dispatch lines to show (default 20)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.bundle, encoding="utf-8") as fh:
            bundle = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read postmortem bundle {args.bundle!r}: {err}",
              file=sys.stderr)
        return 1
    schema = bundle.get("schema")
    if schema == "repro.stall/v1":
        # A standalone stall report (CI artifacts save these directly).
        from repro.telemetry.rounds import render_stall_report

        print(render_stall_report(bundle))
        return 0
    if schema != _SCHEMA:
        print(
            f"warning: unexpected schema {schema!r} "
            f"(expected {_SCHEMA!r})",
            file=sys.stderr,
        )
    try:
        print(render(bundle, tail=args.tail))
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; suppress the
        # interpreter-shutdown flush error and exit cleanly.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
