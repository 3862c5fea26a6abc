"""Profile diff CLI: ``python -m repro.telemetry.profdiff old.json new.json``.

Ranks per-dispatch-label CPU-share and allocation deltas between two
profiled runs and names the top regressed frames — the "why" behind a
regressed wall-clock row.

Each argument is a run document (a ``BENCH_<name>.json``, a telemetry
dump or a postmortem bundle) of a profiled run; its ``profile`` section is
:meth:`repro.telemetry.profiler.SamplingProfiler.snapshot`.

CPU shares are fractions of each run's own sample total, so runs of
different lengths diff meaningfully; deltas are reported in percentage
points (pp).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.report import Table

DIFF_SCHEMA = "repro.profdiff/v1"


class ProfDiffError(Exception):
    """Unreadable input or input without a profile section."""


def load_profile(path: str) -> dict:
    """The ``profile`` section of the run document at *path*."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ProfDiffError(f"cannot read {path}: {exc}") from exc
    profile = document.get("profile") if isinstance(document, dict) else None
    if not isinstance(profile, dict):
        raise ProfDiffError(
            f"{path} carries no profile section — was the run profiled? "
            "(enable_telemetry(profile=True) / BENCH_PROFILE=1)"
        )
    return profile


def _frame_shares(profile: dict) -> dict:
    """``frame -> share of this run's total samples`` from per-label
    ``top_frames`` (truncated lists, so shares are a lower bound)."""
    total = profile.get("samples") or 0
    shares: dict = {}
    if not total:
        return shares
    for row in (profile.get("labels") or {}).values():
        for frame, count in row.get("top_frames") or []:
            shares[frame] = shares.get(frame, 0.0) + count / total
    return shares


def diff_profiles(old: dict, new: dict) -> dict:
    """Per-label and per-frame deltas, most-regressed first.

    "Regressed" = CPU share grew from *old* to *new*; allocation deltas
    ride along per label.  Returns plain JSON-safe data.
    """
    old_labels = old.get("labels") or {}
    new_labels = new.get("labels") or {}
    rows = []
    for label in sorted(set(old_labels) | set(new_labels)):
        before = old_labels.get(label) or {}
        after = new_labels.get(label) or {}
        old_share = before.get("cpu_share") or 0.0
        new_share = after.get("cpu_share") or 0.0
        old_alloc = before.get("alloc_bytes") or 0
        new_alloc = after.get("alloc_bytes") or 0
        rows.append(
            {
                "label": label,
                "old_share": old_share,
                "new_share": new_share,
                "delta_share": new_share - old_share,
                "old_alloc_bytes": old_alloc,
                "new_alloc_bytes": new_alloc,
                "delta_alloc_bytes": new_alloc - old_alloc,
            }
        )
    rows.sort(key=lambda row: (-row["delta_share"], row["label"]))

    old_frames = _frame_shares(old)
    new_frames = _frame_shares(new)
    frames = [
        {
            "frame": frame,
            "old_share": old_frames.get(frame, 0.0),
            "new_share": new_frames.get(frame, 0.0),
            "delta_share": new_frames.get(frame, 0.0) - old_frames.get(frame, 0.0),
        }
        for frame in sorted(set(old_frames) | set(new_frames))
    ]
    frames.sort(key=lambda row: (-row["delta_share"], row["frame"]))

    def _meta(profile: dict) -> dict:
        return {
            "samples": profile.get("samples"),
            "active_s": profile.get("active_s"),
            "interval_s": profile.get("interval_s"),
        }

    return {
        "schema": DIFF_SCHEMA,
        "old": _meta(old),
        "new": _meta(new),
        "labels": rows,
        "frames": frames,
    }


def _pp(share: float) -> str:
    return f"{share * 100:+.1f}pp"


def _pct(share: float) -> str:
    return f"{share * 100:.1f}%"


def _kb(size: float) -> str:
    return f"{size / 1024:+.0f}" if size else "0"


def render_diff(diff: dict, top: int = 12) -> str:
    """Human-readable culprit report for a computed diff."""
    old, new = diff["old"], diff["new"]
    sections = [
        "profile diff — old: {} samples over {}s, new: {} samples over {}s".format(
            old.get("samples", "?"),
            _round(old.get("active_s")),
            new.get("samples", "?"),
            _round(new.get("active_s")),
        )
    ]
    labels = diff["labels"][:top]
    if labels:
        table = Table(
            "per-label CPU share and allocation deltas (worst regression first)",
            ["label", "old cpu", "new cpu", "Δ cpu", "Δ alloc KiB"],
        )
        for row in labels:
            table.add_row(
                row["label"],
                _pct(row["old_share"]),
                _pct(row["new_share"]),
                _pp(row["delta_share"]),
                _kb(row["delta_alloc_bytes"]),
            )
        sections.append(table.render())
    regressed = [row for row in diff["frames"] if row["delta_share"] > 0][:top]
    if regressed:
        table = Table(
            "top regressed frames (share of run's CPU samples)",
            ["frame", "old", "new", "Δ"],
        )
        for row in regressed:
            table.add_row(
                row["frame"], _pct(row["old_share"]), _pct(row["new_share"]),
                _pp(row["delta_share"]),
            )
        sections.append(table.render())
    else:
        sections.append("no regressed frames — new run's hot frames all shrank or held")
    return "\n\n".join(sections)


def _round(value) -> str:
    if value is None:
        return "?"
    return f"{value:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.profdiff",
        description="Rank per-label CPU/alloc deltas between two profiled runs.",
    )
    parser.add_argument("old", help="baseline: a profiled run document (BENCH_*.json)")
    parser.add_argument("new", help="candidate: a profiled run document")
    parser.add_argument("--top", type=int, default=12,
                        help="rows per table (default 12)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full diff as JSON instead of tables")
    args = parser.parse_args(argv)
    try:
        diff = diff_profiles(load_profile(args.old), load_profile(args.new))
    except ProfDiffError as exc:
        print(f"profdiff: error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(diff, indent=2, allow_nan=False))
        else:
            print(render_diff(diff, top=args.top))
    except BrokenPipeError:
        # Downstream pager/head closed early — not an error.  Point
        # stdout at devnull so interpreter shutdown doesn't re-raise on
        # the final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
