"""Exporter golden files + report CLI.

The scenario is synthetic — hand-written observations go down the stream
at hand-set simulated times, with no scheduled events, to an attached span
tracer and round tracer — so every exporter output is byte-deterministic
and can be compared against a golden file.
Regenerate with ``UPDATE_GOLDENS=1 pytest tests/telemetry/test_exporters.py``.
"""

import json
import os
from pathlib import Path

from repro.sim.observe import CheckpointSubmitted, CrossMsgSubmitted, RoundEvent
from repro.sim.scheduler import Simulator
from repro.telemetry import (
    RoundTracer,
    SpanTracer,
    telemetry_snapshot,
    to_chrome_trace,
    write_json,
)
from repro.telemetry.report import main as report_main
from tests.telemetry.feeds import commit

GOLDEN_DIR = Path(__file__).parent / "golden"

MSG_A = "aa" * 16
MSG_B = "bb" * 16
CKPT = "cc" * 16


def _synthetic():
    """One delivered top-down transfer, one failed bottom-up message, one
    fully-anchored checkpoint — all at hand-picked simulated times."""
    sim = Simulator(seed=5)
    sim.attach(SpanTracer(sim))
    root, child = ("/root", "n0"), ("/root/a", "m0")

    sim.now = 1.0
    sim.observe(CrossMsgSubmitted, "/root", "/root/a", "addr-1", 100)
    sim.now = 2.0
    commit(sim, root, [
        ("crossmsg.topdown", ("/root/a", 0, 100, MSG_A, "/root/a", "addr-1", "user")),
    ])
    sim.now = 3.5
    commit(sim, child, [
        ("crossmsg.delivered", ("addr-1", 100, MSG_A)),
        ("checkpoint.sealed", (0, CKPT)),
    ])
    sim.now = 3.75
    sim.observe(CheckpointSubmitted, CKPT, "/root/a", 0)
    sim.now = 4.5
    commit(sim, root, [
        ("checkpoint.committed", ("/root/a", CKPT)),
    ])
    sim.now = 5.0
    commit(sim, child, [
        ("crossmsg.bottomup", (0, 0, 50, MSG_B, "/root", "addr-2", "user")),
    ])
    sim.now = 6.0
    commit(sim, root, [
        ("crossmsg.failed", ("addr-2", "out of gas", MSG_B)),
    ])

    sim.metrics.gauge("demo.gauge").set(2.5)
    sim.metrics.gauge("state.root.buckets_rehashed").set(18)
    sim.metrics.gauge("state.root.leaves_encoded").set(19)
    sim.metrics.histogram("demo.empty")  # summary must export as nulls

    # A consensus round on /root/a: validator 0 times out of round 0,
    # skips to round 1 (f+1 catch-up), then the proposal arrives, the
    # quorum prevotes, the polka locks and the height commits.
    sim.attach(RoundTracer(sim))
    val = "/root/a#0"

    def feed(time, kind, **fields):
        sim.observe(RoundEvent, "/root/a", val, kind, time, fields)

    feed(1.0, "round_start", height=3, round=0, proposer=val,
         quorum=3, total=4)
    feed(2.0, "timeout", height=3, round=0, step="propose")
    feed(2.1, "round_skip", height=3, round=1, proposer="/root/a#1",
         quorum=3, total=4)
    feed(2.2, "proposal", height=3, round=1, proposer="/root/a#1",
         cid="dd" * 8)
    for i in range(3):
        feed(2.3 + i / 10, "vote", height=3, round=1, vote_type="prevote",
             voter=f"/root/a#{i}", power=1, cid="dd" * 8)
    feed(2.6, "lock", height=3, round=1, cid="dd" * 8)
    feed(2.7, "commit", height=3, round=1, cid="dd" * 8)
    return sim


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    golden = path.read_text(encoding="utf-8")
    assert text == golden, f"{name} drifted from golden (UPDATE_GOLDENS=1 to accept)"


def test_chrome_trace_golden():
    sim = _synthetic()
    document = to_chrome_trace(sim)
    _check_golden(
        "synthetic_trace.json",
        json.dumps(document, indent=2, allow_nan=False) + "\n",
    )


def test_chrome_trace_shape():
    sim = _synthetic()
    document = to_chrome_trace(sim)
    events = document["traceEvents"]
    spans = [e for e in events if e["ph"] == "X" and e.get("cat") == "xnet"]
    # submit→enqueue and enqueue→deliver of MSG_A, enqueue→fail of MSG_B
    assert len(spans) == 3
    assert all(e["dur"] > 0 for e in spans)
    ckpt = [e for e in events if e.get("cat") == "checkpoint"]
    assert len(ckpt) == 1
    assert ckpt[0]["dur"] == (4.5 - 3.5) * 1e6
    # One named track per subnet appearing in any span.
    names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
    }
    assert names == {"/root", "/root/a"}


def test_snapshot_json_round_trip(tmp_path):
    sim = _synthetic()
    snapshot = telemetry_snapshot(sim, wall_seconds=0.5)
    path = write_json(str(tmp_path / "dump.json"), snapshot)
    loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    assert loaded == snapshot
    assert loaded["schema"] == "repro.run/v1"
    assert loaded["wall_seconds"] == 0.5
    assert loaded["spans"] == {
        "traces": 2, "delivered": 1, "failed": 1, "in_flight": 0, "checkpoints": 1,
    }
    assert loaded["histograms"]["demo.empty"]["mean"] is None
    assert loaded["histograms"]["xnet.e2e.topdown"]["count"] == 1
    assert loaded["gauges"]["demo.gauge"] == 2.5


def test_chrome_trace_round_tracks():
    """Round events render as one pid-4 track per validator: slices for
    rounds, instants for votes/locks/commits inside them."""
    sim = _synthetic()
    events = to_chrome_trace(sim)["traceEvents"]
    rounds = [e for e in events if e["pid"] == 4]
    names = {
        e["args"]["name"] for e in rounds
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {"/root/a#0"}
    slices = [e for e in rounds if e["ph"] == "X"]
    assert [s["name"] for s in slices] == ["h3 r0", "h3 r1 (skip)"]
    assert all(s["dur"] > 0 for s in slices)
    instants = [e["name"] for e in rounds if e["ph"] == "i"]
    assert instants == [
        "timeout", "proposal", "vote", "vote", "vote", "lock", "commit",
    ]


def test_report_cli_renders_dump(tmp_path, capsys):
    sim = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "cross-net spans: 2 traced, 1 delivered, 1 failed" in out
    assert "cross-net hop latency by hierarchy level" in out
    assert "topdown" in out and "L1" in out
    assert "checkpoint.lag" in out


def test_report_cli_missing_file(tmp_path, capsys):
    assert report_main([str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_report_cli_unparseable_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert report_main([str(path)]) == 1
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert len(err.strip().splitlines()) == 1  # one line, no traceback


def test_report_renders_invariant_counters_and_caches(tmp_path, capsys):
    sim = _synthetic()
    sim.metrics.counter("invariant.exactly_once.nonce_gaps").inc(2)
    sim.metrics.gauge("state.root.buckets_rehashed").set(7)
    sim.metrics.gauge("state.root.leaves_encoded").set(9)
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "invariant counters" in out
    assert "invariant.exactly_once.nonce_gaps" in out
    assert "caches & state-root work" in out
    assert "state.root.buckets_rehashed" in out
    assert "state.root.leaves_encoded" in out


def test_report_renders_rounds_section(tmp_path, capsys):
    sim = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "consensus rounds per subnet" in out
    assert "h3 r1" in out


def test_report_renders_invariants_section(tmp_path, capsys):
    sim = _synthetic()
    from repro.telemetry import InvariantMonitor

    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[]))
    monitor.record("supply", "/root", "demo violation")
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "invariants: 1 violation(s) across 0 auditors" in out
    assert "demo violation" in out
