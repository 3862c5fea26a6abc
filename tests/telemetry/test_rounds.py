"""RoundTracer and StallDiagnoser: unit, digest-neutrality and the
partitioned-subnet integration contract.

The integration test is the acceptance scenario for the stall plane: a
Tendermint subnet is split 2-2 (no side holds the 2f+1 quorum), the
progress watchdog flags the stall, and the attached ``repro.stall/v1``
report must *name* the missing quorum members and the unreachable links.
"""

import json

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.scenario.runner import ProgressWatchdog
from repro.sim.observe import RoundEvent
from repro.sim.scheduler import Simulator
from repro.telemetry import RoundTracer, enable_telemetry, render_stall_report
from repro.telemetry.postmortem import main as postmortem_main
from repro.telemetry.postmortem import render as render_postmortem
from repro.telemetry.rounds import STALL_SCHEMA

SUBNET = "/root/a"
VAL = "/root/a#0"


def _tracer(**kwargs):
    sim = Simulator(seed=3)
    return sim, sim.attach(RoundTracer(sim, **kwargs))


def _feed(tracer, kind, time=0.0, node=VAL, **fields):
    tracer.sim.observe(RoundEvent, SUBNET, node, kind, time, fields)


# ----------------------------------------------------------------------
# RoundTracer units
# ----------------------------------------------------------------------
def test_install_sets_and_uninstall_clears_the_slot():
    sim, tracer = _tracer()
    assert sim.planes["rounds"] is tracer
    sim.detach(tracer)
    assert "rounds" not in sim.planes
    _feed(tracer, "round_start", height=1, round=0)
    assert tracer.summary()["events"] == 0  # detached: nothing arrives
    # Detaching a tracer that is not the attached one is a no-op.
    other = sim.attach(RoundTracer(sim))
    sim.detach(tracer)
    assert sim.planes["rounds"] is other


def test_frontier_advances_and_never_regresses():
    _sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=3, round=0, quorum=3, total=4)
    assert tracer.frontier(SUBNET) == (3, 0)
    _feed(tracer, "round_skip", 2.0, height=3, round=2, quorum=3, total=4)
    assert tracer.frontier(SUBNET) == (3, 2)
    # A straggler vote for an older round must not pull the frontier back.
    _feed(tracer, "vote", 2.5, height=3, round=1, vote_type="prevote",
          voter=VAL, power=1)
    assert tracer.frontier(SUBNET) == (3, 2)
    _feed(tracer, "commit", 3.0, height=4, round=0)
    assert tracer.frontier(SUBNET) == (4, 0)


def test_votes_deduplicate_per_voter_and_round():
    _sim, tracer = _tracer()
    for observer in ("/root/a#0", "/root/a#1"):
        # Two observers report the same vote; power counts once.
        _feed(tracer, "vote", 1.0, node=observer, height=5, round=1,
              vote_type="prevote", voter="/root/a#2", power=3)
    _feed(tracer, "vote", 1.1, height=5, round=1, vote_type="prevote",
          voter="/root/a#3", power=1)
    book = tracer.votes_at(SUBNET, 5, 1, "prevote")
    assert book == {"/root/a#2": 3, "/root/a#3": 1}
    # Same voter at another round is a distinct entry.
    assert tracer.votes_at(SUBNET, 5, 2, "prevote") == {}


def test_timeline_ring_is_bounded():
    _sim, tracer = _tracer(timeline_capacity=4)
    for i in range(10):
        _feed(tracer, "timeout", float(i), height=1, round=i)
    timeline = tracer.timeline(SUBNET, VAL)
    assert len(timeline) == 4
    assert [entry[0] for entry in timeline] == [6.0, 7.0, 8.0, 9.0]


def test_round_duration_and_per_height_histograms():
    sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=2, round=0, quorum=3, total=4)
    _feed(tracer, "round_skip", 3.5, height=2, round=2, quorum=3, total=4)
    duration = sim.metrics.histogram(f"consensus.round.{SUBNET}.duration")
    assert list(duration.samples) == [2.5]
    _feed(tracer, "commit", 4.0, height=2, round=2)
    per_height = sim.metrics.histogram(f"consensus.round.{SUBNET}.per_height")
    assert list(per_height.samples) == [3]  # rounds are 0-based: r2 = 3 rounds
    assert sim.metrics.counter(f"consensus.round.{SUBNET}.skips").value == 1


def test_summary_reports_frontier_power_and_counts():
    _sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=7, round=1, quorum=3, total=4)
    for i in range(2):
        _feed(tracer, "vote", 1.2 + i, height=7, round=1,
              vote_type="prevote", voter=f"/root/a#{i}", power=1)
    _feed(tracer, "vote", 1.5, height=7, round=1, vote_type="precommit",
          voter="/root/a#0", power=1)
    summary = tracer.summary()
    entry = summary["subnets"][SUBNET]
    assert entry["frontier_height"] == 7
    assert entry["frontier_round"] == 1
    assert entry["quorum_power"] == 3
    assert entry["total_power"] == 4
    assert entry["prevote_power"] == 2
    assert entry["precommit_power"] == 1
    assert entry["validators"] == [VAL]
    assert entry["counts"] == {"round_start": 1, "vote": 3}
    assert summary["events"] == 4
    json.dumps(summary, allow_nan=False)  # exporters embed this verbatim


# ----------------------------------------------------------------------
# Digest neutrality (the tentpole's hard constraint)
# ----------------------------------------------------------------------
def _workload_digest(monkeypatch, tie_shuffle, tracing):
    if tie_shuffle is None:
        monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
    system = HierarchicalSystem(
        seed=11, root_validators=3, wallet_funds={"alice": 10_000}
    ).start()
    if tracing:
        system.sim.attach(RoundTracer(system.sim))
    subnet = system.spawn_subnet(
        SubnetConfig(name="s0", engine="tendermint", validators=4,
                     block_time=0.5)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, subnet, alice.address, 2_000)
    system.run_until(15.0)
    if tracing:
        # The tracer really saw the run it must not perturb.
        assert system.sim.planes["rounds"].summary()["events"] > 0
    return system.end_state_digest()


def test_round_tracing_is_digest_neutral(monkeypatch):
    """FIFO and tie-shuffled schedules, tracer on vs off: the end-state
    digest is bit-identical in every combination."""
    digests = {
        (shuffle, tracing): _workload_digest(monkeypatch, shuffle, tracing)
        for shuffle in (None, 1)
        for tracing in (False, True)
    }
    assert len(set(digests.values())) == 1, digests


# ----------------------------------------------------------------------
# The partitioned-subnet stall report (acceptance scenario)
# ----------------------------------------------------------------------
def test_partitioned_tendermint_subnet_yields_named_stall_report(tmp_path, capsys):
    system = HierarchicalSystem(seed=7, root_validators=3).start()
    enable_telemetry(system, monitors=True, health_interval=1.0)
    sub = system.spawn_subnet(
        SubnetConfig(name="s0", engine="tendermint", validators=4)
    )
    system.run_for(5.0)

    watchdog = ProgressWatchdog(system, stall_after=8.0).start()
    nodes = system.nodes(sub)
    members = {node.node_id for node in nodes}
    kept = {node.node_id for node in nodes[:2]}
    cut = members - kept
    system.stack.transport.partition(sorted(cut))
    system.run_for(20.0)

    stalls = [s for s in watchdog.stalls if s["subnet"] == "/root/s0"]
    assert stalls, "watchdog never flagged the partitioned subnet"
    report = stalls[0]["report"]
    assert report["schema"] == STALL_SCHEMA
    assert report["engine"] == "tendermint"

    # The quorum analysis: no single view holds 2f+1, and the missing
    # members are exactly the far side of the observer's partition.
    quorum = report["quorum"]
    assert quorum["kind"] == "vote-quorum"
    assert quorum["held_power"] < quorum["needed_power"]
    assert quorum["missing_power"] > 0
    missing = (
        set(quorum["silent"]) | set(quorum["unreachable"])
        | {entry["voter"] for entry in quorum["misaligned"]}
    )
    observer_side = kept if quorum["observer"] in kept else cut
    assert missing == members - observer_side

    # The network section names every severed pair across the cut.
    pairs = {frozenset(pair) for pair in report["network"]["unreachable_pairs"]}
    assert pairs == {frozenset((a, b)) for a in kept for b in cut}

    # Per-validator engine snapshots and (tracer installed) round context.
    assert {v["node"] for v in report["validators"]} == members
    assert all("round" in v["state"] for v in report["validators"])
    assert report["frontier"] is not None
    assert any(report["recent_events"].values())

    # The human rendering names the subnet and every missing member.
    rendered = render_stall_report(report)
    assert "stall report: /root/s0" in rendered
    assert "short" in rendered
    for member in missing:
        assert member in rendered

    # wait_for timeout diagnostics carry the same reports end to end:
    # last_timeout -> timeout_detail() -> flight-recorder bundle ->
    # postmortem rendering.
    assert not system.wait_for(lambda: False, timeout=2.0, label="stall-test")
    assert system.last_timeout["stall_reports"]
    detail = system.timeout_detail()
    assert "quorum at h" in detail
    bundle = system.sim.planes["recorder"].bundles[-1]
    assert bundle["stall_reports"]
    assert "stall report: /root/s0" in render_postmortem(bundle)

    # The CLI renders a standalone stall-report file (the CI artifact
    # shape) without complaint.
    path = tmp_path / "stall_root_s0.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert postmortem_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "stall report: /root/s0" in out


def test_on_demand_diagnosis_of_a_healthy_slot_subnet():
    """Slot engines have no vote books: the report falls back to the
    leader-schedule analysis instead of inventing a quorum."""
    system = HierarchicalSystem(seed=3, root_validators=3).start()
    enable_telemetry(system)
    system.spawn_subnet(SubnetConfig(name="s0", validators=3))  # PoA
    system.run_for(5.0)

    report = system.sim.planes["stall"].diagnose("/root/s0")
    quorum = report["quorum"]
    assert quorum["kind"] == "leader-schedule"
    assert quorum["expected_leader"]
    assert quorum["head_spread"] is not None
    rendered = render_stall_report(report)
    assert "slot engine" in rendered
    assert "expected leader" in rendered
    json.dumps(report, allow_nan=False)
