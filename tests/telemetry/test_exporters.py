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
    to_prometheus,
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
    series = sim.metrics.timeseries("demo.series")
    series.record(1.0, 1.0)
    series.record(2.0, 3.0)

    # The profiling plane's gauge families (hand-set, no sampler thread):
    # mem.* plus profile.* with a dispatch label full of characters the
    # exposition format must sanitise out of the family name.
    sim.metrics.gauge("mem.rss_bytes").set(42_000_000)
    sim.metrics.gauge("mem.allocated_blocks").set(123456)
    sim.metrics.gauge("profile.samples").set(200)
    sim.metrics.gauge("profile.interval_s").set(0.005)
    sim.metrics.gauge("profile.cpu_share.poa:/root/a#0").set(0.625)
    sim.metrics.gauge("profile.alloc_bytes.poa:/root/a#0").set(2048)

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


def test_prometheus_golden():
    sim = _synthetic()
    _check_golden("synthetic.prom", to_prometheus(sim))


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
    assert loaded["schema"] == "repro.telemetry/v1"
    assert loaded["spans"] == {
        "traces": 2, "delivered": 1, "failed": 1, "in_flight": 0, "checkpoints": 1,
    }
    assert loaded["histograms"]["demo.empty"]["mean"] is None
    assert loaded["histograms"]["xnet.e2e.topdown"]["count"] == 1
    assert loaded["counters"]["xnet.spans.failed"] == 1
    assert loaded["gauges"]["demo.gauge"] == 2.5
    assert loaded["series"]["demo.series"] == {
        "points": 2, "first": [1.0, 1.0], "last": [2.0, 3.0],
    }


def test_prometheus_declares_profiler_families():
    """mem.*/profile.* gauges export with HELP/TYPE and sanitised names —
    the dispatch label's /, # survive only in the HELP line."""
    sim = _synthetic()
    text = to_prometheus(sim)
    assert "# TYPE mem_rss_bytes gauge" in text
    assert "mem_rss_bytes 42000000" in text
    assert "# TYPE profile_samples gauge" in text
    assert "# TYPE profile_cpu_share_poa:_root_a_0 gauge" in text
    assert "profile_cpu_share_poa:_root_a_0 0.625" in text
    assert "# HELP profile_cpu_share_poa:_root_a_0 profile.cpu_share.poa:/root/a#0" in text


def test_prometheus_declares_round_families():
    """consensus.round.* gauges/counters/histograms export with HELP/TYPE."""
    sim = _synthetic()
    text = to_prometheus(sim)
    assert "# TYPE consensus_round__root_a_height gauge" in text
    assert "# HELP consensus_round__root_a_height consensus.round./root/a.height" in text
    assert "consensus_round__root_a_height 3" in text
    assert "consensus_round__root_a_number 1" in text
    assert "# TYPE consensus_round__root_a_quorum_power gauge" in text
    assert "consensus_round__root_a_quorum_power 3" in text
    assert "consensus_round__root_a_prevote_power 3" in text
    assert "# TYPE consensus_round__root_a_skips counter" in text
    assert "consensus_round__root_a_skips 1" in text
    assert "consensus_round__root_a_timeouts 1" in text
    assert "consensus_round__root_a_locks 1" in text
    assert "# TYPE consensus_round__root_a_duration summary" in text
    assert "# TYPE consensus_round__root_a_per_height summary" in text
    assert "consensus_round__root_a_per_height_count 1" in text


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


def test_prometheus_sanitizes_names():
    sim = _synthetic()
    sim.metrics.counter("weird.name-with/slash").inc()
    text = to_prometheus(sim)
    assert "weird_name_with_slash 1" in text
    # The dotted original survives only in the HELP line.
    assert "# HELP weird_name_with_slash weird.name-with/slash" in text


def test_prometheus_lint_clean():
    """Every family has HELP before TYPE and nothing else starts with #."""
    sim = _synthetic()
    lines = to_prometheus(sim).strip().splitlines()
    families = set()
    for i, line in enumerate(lines):
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:4]
            assert kind in ("counter", "gauge", "summary")
            assert lines[i - 1].startswith(f"# HELP {name} "), name
            assert name not in families, f"duplicate family {name}"
            families.add(name)
        elif line.startswith("#"):
            assert line.startswith("# HELP "), f"stray comment: {line}"
    # Every sample line belongs to a declared family.
    for line in lines:
        if not line.startswith("#"):
            sample = line.split("{")[0].split()[0]
            base = sample
            for suffix in ("_count", "_sum"):
                if sample.endswith(suffix) and sample[: -len(suffix)] in families:
                    base = sample[: -len(suffix)]
            assert base in families, f"sample {sample} without TYPE"


def test_prometheus_escaping_helpers():
    from repro.telemetry.export import _escape_help, _escape_label_value

    assert _escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    assert _escape_help("back\\slash\nnewline") == "back\\\\slash\\nnewline"


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


def test_report_cli_json_flag(tmp_path, capsys):
    sim = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim, wall_seconds=0.5))
    assert report_main([path, "--json"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)  # machine-readable
    assert summary["spans"]["delivered"] == 1
    assert summary["wall_seconds"] == 0.5
    assert any(h["hop"] == "topdown" and h["level"] == "L1" for h in summary["hops"])
    assert "topdown" in summary["e2e"]
    assert "checkpoint.lag" in summary["checkpoints"]


def test_report_renders_invariant_counters_and_caches(tmp_path, capsys):
    sim = _synthetic()
    sim.metrics.counter("invariant.supply.violations").inc(2)
    sim.metrics.gauge("state.root.buckets_rehashed").set(7)
    sim.metrics.gauge("state.root.leaves_encoded").set(9)
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "invariant counters" in out
    assert "invariant.supply.violations" in out
    assert "caches & state-root work" in out
    assert "state.root.buckets_rehashed" in out
    assert "state.root.leaves_encoded" in out

    assert report_main([path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["invariant_counters"] == {"invariant.supply.violations": 2}
    assert summary["caches"]["state.root.buckets_rehashed"] == 7
    assert summary["caches"]["state.root.leaves_encoded"] == 9


def test_report_renders_profile_section(tmp_path, capsys):
    from repro.telemetry import SamplingProfiler

    sim = _synthetic()
    profiler = sim.attach(SamplingProfiler(sim, interval=0.001).start())
    sim.schedule(1.0, lambda: __import__("time").sleep(0.03), label="busy")
    sim.run()
    profiler.stop()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "CPU profile —" in out and "samples" in out

    assert report_main([path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["profile"]["schema"] == "repro.profile/v1"
    assert summary["profile"]["samples"] == sum(
        row["samples"] for row in summary["profile"]["labels"].values()
    )


def test_report_renders_rounds_section(tmp_path, capsys):
    sim = _synthetic()
    path = str(tmp_path / "dump.json")
    write_json(path, telemetry_snapshot(sim))
    assert report_main([path]) == 0
    out = capsys.readouterr().out
    assert "consensus rounds per subnet" in out
    assert "h3 r1" in out

    assert report_main([path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    entry = summary["rounds"]["subnets"]["/root/a"]
    assert entry["frontier_height"] == 3
    assert entry["frontier_round"] == 1
    assert entry["quorum_power"] == 3
    assert entry["prevote_power"] == 3
    assert entry["counts"]["round_skip"] == 1
    assert "consensus.round./root/a.duration" in summary["round_histograms"]


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
