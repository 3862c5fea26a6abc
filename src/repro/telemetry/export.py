"""Telemetry exporters: the run document and the Chrome trace.

Two consumers, two formats:

- :func:`telemetry_snapshot` / :func:`write_json` — the run document
  (``repro.run/v1``), the one serialization of a run: metrics, dispatch
  profile, one section per plane attached to the simulator, and what the
  caller adds under ``extra`` (a postmortem bundle's reason, violation and
  stall reports; a benchmark's rows and end-state digest).  ``python -m
  repro.telemetry.report`` renders whichever sections it carries.
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON loadable in Perfetto (https://ui.perfetto.dev): one
  track per subnet carrying the cross-net hop spans and checkpoint
  anchoring spans (simulated time), plus a DispatchBus profile track
  (wall-clock CPU attribution per event label).

Both take the simulator and find the planes on ``sim.planes``.
:data:`METRIC_CATALOG` is the metric surface: every family, with the file
that reads it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.sim.metrics import json_safe

RUN_SCHEMA = "repro.run/v1"
#: The keys of a run document that read the wall clock (``profile`` is the
#: function-level section ``benchmarks/hotspots.py`` adds).  Everything else
#: is simulated time or committed state, so two runs of one seed and workload
#: give documents equal outside these keys.
WALL_CLOCK_KEYS = ("wall_seconds", "dispatch", "profile")


def telemetry_snapshot(
    sim,
    wall_seconds: Optional[float] = None,
    extra: Optional[dict] = None,
) -> dict:
    """The run document of a finished (or running) run: the simulator's own
    numbers, every attached plane's summary under its section name, and
    *extra* — all of it JSON-safe."""
    document = {
        "schema": RUN_SCHEMA,
        "sim": {
            "now": sim.now,
            "events_executed": sim.events_executed,
            "seed": sim.seed,
            "tie_shuffle": sim.tie_shuffle,
        },
        "wall_seconds": wall_seconds,
        **sim.metrics.snapshot(),
        "dispatch": sim.dispatch.summary(),
    }
    for section, plane in sorted(sim.planes.items()):
        summary = plane.summary()
        if summary is not None:
            document[section] = summary
    if extra:
        document["extra"] = extra
    return json_safe(document)


def write_json(path: str, snapshot: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=False, allow_nan=False)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# The metric surface
# ----------------------------------------------------------------------
_LEDGER = "benchmarks/ledger/layers.py"
_REPORT = "src/repro/telemetry/report.py"
_GOSSIP_ORACLE = "tests/net/test_gossip_oracle.py"

#: Every family the system emits, keyed by a dotted name pattern (``*`` =
#: one interpolated segment, e.g. a subnet path or a level), mapping to
#: ``(reader, description)``: *reader* is the repo-relative file that reads
#: the family, and it spells the family's name
#: (``tests/lint/test_surface.py`` checks that).  A family nothing reads
#: does not belong here, nor does its emit site.  MET001
#: (``tests/lint/rules.py``, run by ``pytest tests/lint``) cross-checks
#: this table against every emit site in the tree — both ways.  Interpolated values (subnet paths, levels) never contain dots.
#: A histogram is a :class:`~repro.sim.metrics.Histogram`: exact up to
#: ``BUFFER_SIZE`` (4 096) observations; past that, count, sum, min and
#: max stay exact, and a quantile is exact over ints and within
#: ``EPSILON`` (2**-8, 0.39 %) of the exact one over floats.
METRIC_CATALOG: dict = {
    # net/transport: counts only; a copy's latency is the model's draw,
    # seen above the transport as its delivery time, and never sampled
    "net.sent": (_LEDGER, "messages handed to the transport"),
    "net.delivered": (
        _GOSSIP_ORACLE, "materialised deliveries: queued messages handed to a registered peer"
    ),
    "net.partitioned_drops": (_LEDGER, "messages dropped by an active partition"),
    "net.lost": (_LEDGER, "messages dropped by random loss"),
    # net/gossip
    "gossip.published": (_LEDGER, "pubsub messages published"),
    "gossip.delivered": (_LEDGER, "pubsub deliveries to subscriber handlers"),
    "gossip.duplicates_elided": (
        _GOSSIP_ORACLE,
        "mesh copies sent, not queued: peer has the id or an earlier-landing copy queued",
    ),
    # chain/runtime (per-subnet)
    "chain.*.reorgs": (_LEDGER, "chain reorganisations applied"),
    "chain.*.sync_blocks": ("tests/scenario/test_long_outage.py", "blocks applied via range sync"),
    # state
    "state.root.buckets_rehashed": (_REPORT, "buckets rehashed by the last incremental root"),
    "state.root.leaves_encoded": (_REPORT, "leaves re-encoded by the last incremental root"),
    "state.tree.layer_depth": (_REPORT, "depth of the state hash tree"),
    # consensus engines (per-subnet)
    "consensus.*.proposed": (_LEDGER, "blocks proposed by this engine"),
    "consensus.*.mined": (_LEDGER, "blocks mined (PoW)"),
    "consensus.*.rounds": (_LEDGER, "consensus rounds started"),
    "consensus.*.committed": (_LEDGER, "blocks committed by consensus"),
    "consensus.*.block_interval": (
        "benchmarks/bench_e7_consensus.py", "inter-block simulated time"
    ),
    # consensus round tracer (per-subnet)
    "consensus.round.*.per_height": (_REPORT, "rounds needed per committed height"),
    # hierarchy: checkpointing (per-subnet) and anchoring spans
    "checkpoint.*.submitted": (_LEDGER, "checkpoints submitted to the parent"),
    "checkpoint.*.fraud_proofs": (
        "benchmarks/bench_e8_lifecycle.py", "checkpoint fraud proofs accepted"
    ),
    "checkpoint.lag": (_REPORT, "seal-to-commit lag of anchored checkpoints"),
    "checkpoint.lag.L*": (_REPORT, "checkpoint lag by source-subnet level"),
    "checkpoint.hop.seal_to_submit": (_REPORT, "checkpoint seal-to-submit hop time"),
    "checkpoint.hop.submit_to_commit": (_REPORT, "checkpoint submit-to-commit hop time"),
    # hierarchy: cross-net messaging (per-subnet)
    "crossmsg.*.bottomup_failed": (
        "benchmarks/bench_e9_revert.py", "bottom-up cross-messages failed"
    ),
    # hierarchy: content resolution
    "resolution.push_stored": ("benchmarks/bench_e4_resolution.py", "pushed content stored"),
    "resolution.pull_sent": (_LEDGER, "content pulls sent"),
    "resolution.pull_served": ("benchmarks/bench_e4_resolution.py", "content pulls served"),
    "resolution.resolved": ("benchmarks/bench_e4_resolution.py", "contents resolved end-to-end"),
    # hierarchy: checkpoint acceleration
    "accel.settled": (
        "tests/integration/test_acceleration_and_fees.py", "accelerated checkpoints settled"
    ),
    "accel.bad_certificates": (
        "tests/integration/test_acceleration_and_fees.py", "invalid acceleration certificates"
    ),
    # telemetry: cross-net span tracer
    "xnet.hop.submit.L*": (_REPORT, "submit hop time by source level"),
    "xnet.hop.topdown.L*": (_REPORT, "top-down hop time by level"),
    "xnet.hop.bottomup.L*": (_REPORT, "bottom-up hop time by level"),
    "xnet.e2e.topdown": (_REPORT, "end-to-end top-down delivery time"),
    "xnet.e2e.bottomup": (_REPORT, "end-to-end bottom-up delivery time"),
    "xnet.e2e.path": (_REPORT, "end-to-end delivery time via an LCA path"),
    # telemetry: invariant monitor
    "invariant.exactly_once.fork_replays": (_REPORT, "cross-message replays on rival forks"),
    "invariant.exactly_once.nonce_gaps": (_REPORT, "cross-message nonce gaps observed"),
}


# ----------------------------------------------------------------------
# Chrome trace events (Perfetto)
# ----------------------------------------------------------------------
_SUBNET_PID = 1
_DISPATCH_PID = 2
_ROUNDS_PID = 4
#: The dispatch track shows this many labels, costliest first.
_TOP_DISPATCH = 16


def to_chrome_trace(sim) -> dict:
    """Chrome trace-event JSON: subnet span tracks + a dispatch profile.

    Cross-net/checkpoint spans (an attached
    :class:`~repro.telemetry.spans.SpanTracer`) use **simulated**
    microseconds; the dispatch track lays each label's cumulative
    **wall-clock** time end-to-end (a profile, not a timeline).  An
    attached :class:`~repro.telemetry.rounds.RoundTracer` adds a third
    process: one track per validator carrying its consensus rounds as
    slices (``h12 r0`` …) with votes, locks, timeouts and commits as
    instant events inside them.
    """
    tracer = sim.planes.get("spans")
    rounds = sim.planes.get("rounds")
    events: list[dict] = []
    events.append(_meta(_SUBNET_PID, "process_name", name="subnets (simulated time)"))

    if tracer is not None:
        subnets: set = set()
        for span_events in tracer.traces.values():
            subnets.update(event.subnet for event in span_events)
        for entry in tracer.checkpoints.values():
            subnets.update(
                entry[k] for k in ("source", "parent") if entry.get(k) is not None
            )
        tids = {path: i + 1 for i, path in enumerate(sorted(subnets))}
        for path, tid in tids.items():
            events.append(_meta(_SUBNET_PID, "thread_name", tid=tid, name=path))

        for trace_id in sorted(tracer.traces):
            span_events = tracer.traces[trace_id]
            info = tracer.trace_info.get(trace_id, {})
            for prev, cur in zip(span_events, span_events[1:]):
                events.append({
                    "name": f"{prev.subnet} → {cur.subnet} ({cur.phase})",
                    "cat": "xnet",
                    "ph": "X",
                    "ts": prev.time * 1e6,
                    "dur": max((cur.time - prev.time) * 1e6, 1.0),
                    "pid": _SUBNET_PID,
                    "tid": tids[cur.subnet],
                    "args": {
                        "trace": trace_id[:16],
                        "value": info.get("value"),
                        "to_subnet": info.get("to_subnet"),
                    },
                })
            last = span_events[-1]
            events.append({
                "name": f"xnet.{last.phase}",
                "cat": "xnet",
                "ph": "i",
                "s": "t",
                "ts": last.time * 1e6,
                "pid": _SUBNET_PID,
                "tid": tids[last.subnet],
                "args": {"trace": trace_id[:16]},
            })

        for ckpt_hex in sorted(tracer.checkpoints):
            entry = tracer.checkpoints[ckpt_hex]
            sealed, committed = entry.get("sealed"), entry.get("committed")
            source = entry.get("source")
            if sealed is None or committed is None or source not in tids:
                continue
            events.append({
                "name": f"checkpoint w{entry.get('window')}",
                "cat": "checkpoint",
                "ph": "X",
                "ts": sealed * 1e6,
                "dur": max((committed - sealed) * 1e6, 1.0),
                "pid": _SUBNET_PID,
                "tid": tids[source],
                "args": {"cid": ckpt_hex[:16], "parent": entry.get("parent")},
            })

    events.append(_meta(_DISPATCH_PID, "process_name", name="dispatch profile (wall clock)"))
    events.append(_meta(_DISPATCH_PID, "thread_name", tid=1, name="cumulative wall time"))
    offset = 0.0
    for row in sim.dispatch.summary()[:_TOP_DISPATCH]:
        duration = max(row["wall_s"] * 1e6, 1.0)
        events.append({
            "name": row["label"],
            "cat": "dispatch",
            "ph": "X",
            "ts": offset,
            "dur": duration,
            "pid": _DISPATCH_PID,
            "tid": 1,
            "args": {"events": row["events"], "mean_us": row["mean_s"] * 1e6},
        })
        offset += duration

    if rounds is not None:
        events.extend(_round_events(rounds))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _round_events(rounds) -> list:
    """Per-validator consensus-round tracks (simulated time).

    Each validator gets a thread; ``round_start``/``round_skip`` entries
    become slices spanning until the next round boundary (or commit), and
    every other event kind lands inside as an instant with its fields.
    """
    events: list[dict] = []
    events.append(
        _meta(_ROUNDS_PID, "process_name", name="consensus rounds (simulated time)")
    )
    keys = sorted(rounds.timelines)
    tids = {key: i + 1 for i, key in enumerate(keys)}
    for key, tid in tids.items():
        subnet, node_id = key
        events.append(_meta(_ROUNDS_PID, "thread_name", tid=tid, name=node_id))
        timeline = rounds.timeline(subnet, node_id)
        open_slice = None  # (start_ts, name, fields)

        def close(end_ts: float) -> None:
            nonlocal open_slice
            if open_slice is None:
                return
            start, name, fields = open_slice
            events.append({
                "name": name,
                "cat": "round",
                "ph": "X",
                "ts": start * 1e6,
                "dur": max((end_ts - start) * 1e6, 1.0),
                "pid": _ROUNDS_PID,
                "tid": tid,
                "args": fields,
            })
            open_slice = None

        for time, kind, fields in timeline:
            if kind in ("round_start", "round_skip"):
                close(time)
                name = f"h{fields.get('height')} r{fields.get('round')}"
                if kind == "round_skip":
                    name += " (skip)"
                open_slice = (time, name, dict(fields))
            else:
                events.append({
                    "name": kind,
                    "cat": "round",
                    "ph": "i",
                    "s": "t",
                    "ts": time * 1e6,
                    "pid": _ROUNDS_PID,
                    "tid": tid,
                    "args": dict(fields),
                })
                if kind == "commit":
                    close(time)
        if open_slice is not None and timeline:
            close(timeline[-1][0])
    return events


def _meta(pid: int, kind: str, tid: int = 0, name: str = "") -> dict:
    return {
        "name": kind,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def write_chrome_trace(path: str, sim) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(sim), handle, allow_nan=False)
        handle.write("\n")
    return path
