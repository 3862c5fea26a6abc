"""Invariant monitor: honest-run silence, digest neutrality, auditor units."""

from types import SimpleNamespace

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig, SubnetID, audit_system
from repro.hierarchy.gateway import SCA_ADDRESS, child_key
from repro.hierarchy.genesis import hierarchy_registry
from repro.sim.observe import ChainReorg
from repro.sim.scheduler import Simulator
from repro.sim.tracing import TraceLog
from repro.telemetry import (
    ExactlyOnceAuditor,
    FinalityAuditor,
    InvariantMonitor,
    SupplyAuditor,
    enable_telemetry,
)
from repro.telemetry.monitor import MAX_BUNDLES
from repro.vm.vm import VM
from tests.telemetry.feeds import commit, stub_node


def _run_system(monitors: bool):
    """Root + one subnet; one top-down and one bottom-up transfer, traced
    from construction on."""
    system = HierarchicalSystem(seed=11)
    system.sim.attach(TraceLog(system.sim))
    system.start()
    if monitors:
        enable_telemetry(system, monitors=True)
    alice = system.create_wallet("alice", fund=500_000)
    sub = system.spawn_subnet(SubnetConfig(name="fast", validators=3, block_time=0.5))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(20)
    system.cross_send(alice, sub, "/root", alice.address, 5_000)
    system.run_for(30)
    return system


@pytest.fixture(scope="module")
def monitored_system():
    return _run_system(monitors=True)


# ----------------------------------------------------------------------
# Honest end-to-end run
# ----------------------------------------------------------------------
def test_honest_run_has_zero_violations(monitored_system):
    monitor = monitored_system.sim.planes["invariants"]
    assert monitor.ok
    assert monitor.violations == []
    summary = monitor.summary()
    assert summary["violations"] == 0
    assert summary["by_auditor"] == {}
    assert summary["latest"] is None
    assert set(summary["auditors"]) == {
        "supply", "checkpoint-chain", "exactly-once", "finality", "membership",
    }
    # No violations → no postmortem bundles.
    assert monitored_system.sim.planes["recorder"].bundles == []


def test_digest_unchanged_with_monitors(monitored_system):
    plain = _run_system(monitors=False)  # the trace log is its only plane
    assert list(plain.sim.planes) == ["trace"]
    assert plain.sim.planes["trace"].summary() == monitored_system.sim.planes["trace"].summary()


def test_enable_telemetry_is_idempotent(monitored_system):
    before = dict(monitored_system.sim.planes)
    planes = enable_telemetry(monitored_system, monitors=True)
    assert planes == before  # the same plane objects under the same sections


def test_install_uninstall():
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[SupplyAuditor()]))
    assert sim.planes["invariants"] is monitor
    sim.detach(monitor)
    assert "invariants" not in sim.planes
    commit(sim, stub_node(), [("firewall.refused", ("/root/victim", 2, 1))])
    assert monitor.ok  # detached: the refusal never reached the auditor


# ----------------------------------------------------------------------
# Violation recording
# ----------------------------------------------------------------------
def test_record_dedup_and_counts():
    sim = Simulator(seed=1)
    monitor = InvariantMonitor(sim=sim, auditors=[])
    first = monitor.record("supply", "/root", "broken", dedup_key=("k",))
    again = monitor.record("supply", "/root", "broken differently", dedup_key=("k",))
    other = monitor.record("finality", "/root", "fork")
    assert first is not None and again is None and other is not None
    assert len(monitor.violations) == 2
    assert [v.seq for v in monitor.violations] == [0, 1]
    assert monitor.summary()["violations"] == 2
    assert monitor.violations_for("finality") == [other]
    assert monitor.summary()["by_auditor"] == {"supply": 1, "finality": 1}
    assert monitor.summary()["latest"]["description"] == "fork"


class _StubRecorder:
    def __init__(self):
        self.bundles = []

    def dump(self, violation=None, reason=None):
        self.bundles.append(violation)


def test_violation_triggers_recorder_dump_up_to_cap():
    sim = Simulator(seed=1)
    recorder = _StubRecorder()
    monitor = InvariantMonitor(sim=sim, auditors=[], recorder=recorder)
    for i in range(MAX_BUNDLES + 2):
        monitor.record("supply", "/root", f"violation {i}")
    assert len(monitor.violations) == MAX_BUNDLES + 2
    assert len(recorder.bundles) == MAX_BUNDLES  # capped
    assert recorder.bundles[0].description == "violation 0"


# ----------------------------------------------------------------------
# Supply auditor (event path)
# ----------------------------------------------------------------------
def test_supply_auditor_flags_firewall_refusal():
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[SupplyAuditor()]))
    events = [("firewall.refused", ("/root/victim", 1_000_000, 10_000))]
    commit(sim, stub_node(), events)
    commit(sim, stub_node(node_id="n1"), events)  # dedups
    (violation,) = monitor.violations
    assert violation.auditor == "supply"
    assert "exceeds its circulating supply" in violation.description


# ----------------------------------------------------------------------
# Supply auditor (books path): the rules are firewall.books_findings, so
# the live auditor and the after-the-fact audit_system cannot disagree.
# ----------------------------------------------------------------------
def _books(record, pool, minted, burned):
    """A rootnet whose SCA holds *pool* and one hand-written child record,
    beside a child chain that minted / burned so much: (system, node)."""
    vm = VM(subnet_id="/root", registry=hierarchy_registry())
    vm.mint(SCA_ADDRESS, pool)
    vm.state.set(child_key("/root/a"), dict(_SOUND, **record))
    sim = Simulator(seed=1)
    node = stub_node(vm=vm)
    child = stub_node("/root/a", vm=SimpleNamespace(total_minted=minted, total_burned=burned))
    system = SimpleNamespace(
        sim=sim, subnets=["/root"], node=lambda subnet: node,
        nodes_by_subnet={SubnetID("/root/a"): [child]},
    )
    return system, node


_SOUND = {
    "status": "active", "collateral": 100, "circulating": 10,
    "injected_total": 10, "released_total": 0,
}


@pytest.mark.parametrize(
    "record, pool, minted, rules",
    [
        ({}, 110, 10, set()),
        ({"released_total": 15, "circulating": -5}, 110, 10, {"released>injected", "ledger"}),
        ({"released_total": 4, "circulating": 7}, 110, 10, {"ledger"}),
        ({}, 110, 11, {"mint"}),
        ({}, 109, 10, {"solvency"}),
    ],
    ids=["sound", "firewall-bound", "ledger", "mint-bound", "pool-solvency"],
)
def test_supply_auditor_and_audit_system_report_the_same_books(record, pool, minted, rules):
    system, node = _books(record, pool, minted, burned=record.get("released_total", 0))
    monitor = system.sim.attach(
        InvariantMonitor(system, auditors=[SupplyAuditor()], check_interval=1)
    )
    commit(system.sim, node, [])
    audit = audit_system(system)
    assert audit.ok == monitor.ok == (not rules)
    assert audit.violations == [f"/root: {v.description}" for v in monitor.violations]
    assert {key[2][0] for key in monitor._seen} == rules


def test_books_stay_sound_under_a_forgery_only_the_live_burn_check_sees():
    # Released within the circulating supply, but never burned below:
    # audit_system means "the books are sound" and they are.
    system, node = _books({"released_total": 5, "circulating": 5}, 110, 10, burned=0)
    monitor = system.sim.attach(
        InvariantMonitor(system, auditors=[SupplyAuditor()], check_interval=1)
    )
    commit(system.sim, node, [])
    assert audit_system(system).ok
    (violation,) = monitor.violations
    assert "ever burned in its subtree" in violation.description


# ----------------------------------------------------------------------
# Exactly-once auditor
# ----------------------------------------------------------------------
class _StubBlock:
    def __init__(self, cid, height):
        self.cid = cid
        self.height = height


class _StubChainStore:
    """Extension oracle: blocks tagged with a chain name share a chain."""

    def __init__(self, chains):
        self._chains = chains  # cid -> chain name

    def is_extension(self, old, new):
        return self._chains.get(old) == self._chains.get(new)


def test_exactly_once_flags_double_delivery_on_one_chain():
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[ExactlyOnceAuditor()]))
    store = _StubChainStore({"b1": "main", "b2": "main"})
    node = stub_node(store=store)
    deliver = [("crossmsg.delivered", ("addr", 5, "cd" * 16))]
    commit(sim, node, deliver, _StubBlock("b1", 3))
    commit(sim, node, deliver, _StubBlock("b1", 3))  # same block: ok
    assert monitor.ok
    commit(sim, node, deliver, _StubBlock("b2", 4))  # same chain: bad
    (violation,) = monitor.violations
    assert "applied twice" in violation.description


def test_exactly_once_tolerates_fork_replay():
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[ExactlyOnceAuditor()]))
    store = _StubChainStore({"b1": "fork-a", "b2": "fork-b"})
    node = stub_node(store=store)
    deliver = [("crossmsg.delivered", ("addr", 5, "cd" * 16))]
    commit(sim, node, deliver, _StubBlock("b1", 3))
    commit(sim, node, deliver, _StubBlock("b2", 3))
    assert monitor.ok  # rival forks may both apply; not a violation
    assert sim.metrics.counter("invariant.exactly_once.fork_replays").value == 1


def test_exactly_once_nonce_rules():
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[ExactlyOnceAuditor()]))
    node = stub_node()

    def topdown(nonce, cid):
        return [("crossmsg.topdown",
                 ("/root/a", nonce, 7, cid, "/root/a", "addr", "user"))]

    commit(sim, node, topdown(0, "aa" * 16))
    commit(sim, node, topdown(1, "bb" * 16))
    commit(sim, node, topdown(1, "bb" * 16))  # re-observation
    assert monitor.ok
    commit(sim, node, topdown(1, "cc" * 16))  # reuse, new cid
    commit(sim, node, topdown(0, "dd" * 16))  # also reuse
    assert len(monitor.violations) == 2
    assert all("nonce" in v.description for v in monitor.violations)
    # A forward gap is counted, not convicted (monitor may attach mid-run).
    commit(sim, node, topdown(5, "ee" * 16))
    assert len(monitor.violations) == 2
    assert sim.metrics.counter("invariant.exactly_once.nonce_gaps").value == 1


# ----------------------------------------------------------------------
# Finality auditor
# ----------------------------------------------------------------------
class _StubEngine:
    """Blocks are final five below the head (a PoW engine's depth)."""

    def __init__(self) -> None:
        self.head_height = 0

    def final_height(self) -> int:
        return self.head_height - 5


def test_finality_auditor_flags_deep_reorg():
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[FinalityAuditor()]))
    engine = _StubEngine()
    node = stub_node(engine=engine)
    engine.head_height = 30
    sim.observe(ChainReorg, node, "old", _StubBlock("new", 30), 3)
    assert monitor.ok  # within finality depth
    engine.head_height = 40
    sim.observe(ChainReorg, node, "old", _StubBlock("new", 40), 9)
    (violation,) = monitor.violations
    assert violation.auditor == "finality"
    assert "deeper than the finality depth" in violation.description
