"""RoundTracer and StallDiagnoser: unit, digest-neutrality and the
partitioned-subnet integration contract.

The integration test is the acceptance scenario for the stall plane: a
Tendermint subnet is split 2-2 (no side holds the 2f+1 quorum), the
progress watchdog flags the stall, and the attached stall report must
*name* the missing quorum members and the unreachable links.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.scenario.runner import ProgressWatchdog
from repro.sim.observe import RoundEvent
from repro.sim.scheduler import Simulator
from repro.telemetry import RoundTracer, enable_telemetry, render_stall_report
from repro.telemetry.report import main as report_main
from repro.telemetry.report import render as render_report
from repro.telemetry.rounds import TIMELINE_CAPACITY

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


def test_vote_books_are_kept_for_the_frontier_height_only():
    """A book below the frontier height is never read again: it is dropped
    when the frontier's height moves past it, and a late vote for it does
    not bring it back."""
    _sim, tracer = _tracer()
    for height in range(1, 121):
        for i in range(4):
            _feed(tracer, "vote", float(height), height=height, round=0,
                  vote_type="prevote", voter=f"/root/a#{i}", power=1)
        _feed(tracer, "vote", float(height), height=height - 1, round=0,
              vote_type="precommit", voter=VAL, power=1)
    assert tracer.frontier(SUBNET) == (120, 0)
    assert tracer.votes_at(SUBNET, 119, 0, "precommit") == {}
    assert sum(tracer.votes_at(SUBNET, 120, 0, "prevote").values()) == 4
    assert {height for height, _, _ in tracer._votes[SUBNET]} == {120}


def test_timeline_ring_is_bounded():
    _sim, tracer = _tracer()
    for i in range(TIMELINE_CAPACITY + 6):
        _feed(tracer, "timeout", float(i), height=1, round=i)
    timeline = tracer.timeline(SUBNET, VAL)
    assert len(timeline) == TIMELINE_CAPACITY
    assert timeline[0][0] == 6.0 and timeline[-1][0] == TIMELINE_CAPACITY + 5.0


def test_rounds_per_height_histogram():
    sim, tracer = _tracer()
    _feed(tracer, "round_start", 1.0, height=2, round=0, quorum=3, total=4)
    _feed(tracer, "round_skip", 3.5, height=2, round=2, quorum=3, total=4)
    _feed(tracer, "commit", 4.0, height=2, round=2)
    per_height = sim.metrics.histogram(f"consensus.round.{SUBNET}.per_height")
    assert per_height.summary() == {  # rounds are 0-based: r2 = 3 rounds
        "count": 1, "mean": 3.0, "stdev": 0.0, "p50": 3, "p95": 3, "p99": 3, "min": 3, "max": 3,
    }
    assert tracer.summary()["subnets"][SUBNET]["counts"]["round_skip"] == 1


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


class RecomputeAlways:
    """Keeps its own books of the whole event stream and recomputes the
    ``rounds`` section's frontier, quorum and vote power from them."""

    def __init__(self):
        self.frontier = self.quorum = None
        self.books = {}  # (height, round, vote_type) -> {voter: power}

    def feed(self, kind, height=None, round=None, quorum=None, total=None, vote_type=None,
             voter=None, power=None):
        if kind in ("round_start", "round_skip") and quorum is not None:
            self.quorum = (quorum, total)
        if kind == "vote":
            self.books.setdefault((height, round, vote_type), {}).setdefault(voter, power)
        if height is not None:
            self.frontier = max(filter(None, [self.frontier, (height, round or 0)]))

    def shown(self):
        quorum, total = self.quorum or (None, None)
        shown = {
            "frontier_height": self.frontier and self.frontier[0],
            "frontier_round": self.frontier and self.frontier[1],
            "quorum_power": quorum, "total_power": total,
        }
        if self.frontier is not None:
            for vote_type in ("prevote", "precommit"):
                shown[f"{vote_type}_power"] = sum(
                    self.books.get((*self.frontier, vote_type), {}).values())
        return shown


HEIGHT = st.one_of(st.none(), st.integers(1, 3))
ROUND = st.one_of(st.none(), st.integers(0, 2))
EVENTS = st.one_of(
    st.tuples(st.sampled_from(["round_start", "round_skip"]), st.fixed_dictionaries(
        {"height": HEIGHT, "round": ROUND,
         "quorum": st.sampled_from([None, 3, 3, 5]), "total": st.sampled_from([4, 7])})),
    st.tuples(st.just("vote"), st.fixed_dictionaries(
        {"height": HEIGHT, "round": ROUND, "vote_type": st.sampled_from(["prevote", "precommit"]),
         "voter": st.sampled_from(["v0", "v1", "v2"]), "power": st.integers(1, 3)})),
    st.tuples(st.sampled_from(["commit", "timeout", "lock", "proposal"]),
              st.fixed_dictionaries({"height": HEIGHT, "round": ROUND})),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(EVENTS, min_size=1, max_size=30))
def test_summary_reads_as_if_recomputed_from_the_whole_stream(events):
    """The tracer keeps vote books at the frontier height only; its summary
    must read as a model that keeps every book does, after each event:
    stragglers, heightless events, repeated votes and quorum changes
    included."""
    _sim, tracer = _tracer()
    model = RecomputeAlways()
    for index, (kind, fields) in enumerate(events):
        fields = {name: value for name, value in fields.items() if value is not None}
        _feed(tracer, kind, float(index), **fields)
        model.feed(kind, **fields)
        entry = tracer.summary()["subnets"][SUBNET]
        shown = {key: value for key, value in entry.items() if key not in ("counts", "validators")}
        assert shown == model.shown()


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

    watchdog = system.sim.attach(ProgressWatchdog(system.sim, stall_after=8.0))
    nodes = system.nodes(sub)
    members = {node.node_id for node in nodes}
    kept = {node.node_id for node in nodes[:2]}
    cut = members - kept
    system.stack.transport.partition(sorted(cut))
    system.run_for(20.0)

    stalls = [s for s in watchdog.stalls if s["subnet"] == "/root/s0"]
    assert stalls, "watchdog never flagged the partitioned subnet"
    report = stalls[0]["report"]
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

    # The human rendering names the subnet and every missing member, and
    # its quorum line is the one the report carries.
    rendered = render_stall_report(report)
    assert "stall report: /root/s0" in rendered
    assert quorum["line"] in rendered
    assert "short" in quorum["line"]
    for member in missing:
        assert member in quorum["line"]

    # wait_for timeout diagnostics carry the same reports end to end:
    # last_timeout -> timeout_detail() -> flight-recorder bundle ->
    # report rendering.
    assert not system.wait_for(lambda: False, timeout=2.0, label="stall-test")
    assert system.last_timeout["stall_reports"]
    detail = system.timeout_detail()
    assert "/root/s0 quorum at h" in detail
    bundle = system.sim.planes["recorder"].bundles[-1]
    assert bundle["extra"]["stall_reports"]
    assert "stall report: /root/s0" in render_report(bundle)

    # The CLI renders the bundle, the one artifact a stall leaves.
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle), encoding="utf-8")
    assert report_main([str(path)]) == 0
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


def test_on_demand_diagnosis_of_a_pow_subnet_names_the_mining_race():
    """PoW has neither votes nor a leader: the report is the race — the
    heads being mined on, the head spread and the final height — and each
    validator's line carries its miner state."""
    system = HierarchicalSystem(seed=3, root_engine="pow").start()
    enable_telemetry(system)
    system.run_for(10.0)

    report = system.sim.planes["stall"].diagnose("/root")
    quorum = report["quorum"]
    states = [validator["state"] for validator in report["validators"]]
    assert quorum["kind"] == "mining-race"
    assert quorum["head_spread"] == 0
    assert quorum["mining_on"] == sorted({state["mining_on"] for state in states})
    assert quorum["final_height"] == min(state["final_height"] for state in states) > 0
    assert "expected leader" not in quorum["line"]
    assert f"final height {quorum['final_height']}" in quorum["line"]
    rendered = render_stall_report(report)
    for validator in report["validators"]:
        state = validator["state"]
        assert (
            f"{validator['node']}: head={validator['head_height']} running=True "
            f"mining_on={state['mining_on']} power={state['power']} "
            f"final_height={state['final_height']}"
        ) in rendered
    json.dumps(report, allow_nan=False)
