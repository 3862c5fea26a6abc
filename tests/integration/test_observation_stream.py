"""The observation stream end to end: a plane defined here, attached to a
live hierarchy, receives every record kind the protocol emits — and a run
nobody watches builds no record at all, not even a trace log line."""

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.sim.observe import (
    BlockCommitted,
    ChainReorg,
    CheckpointSubmitted,
    CrossMsgSubmitted,
    HealthSampled,
    Noted,
    Plane,
    RoundEvent,
    WaitTimedOut,
)
from repro.sim.tracing import TraceLog, TraceRecord
from repro.telemetry import HealthProbe

#: The digest of ``_run(traced=True)``'s log: 133 commits, 4 checkpoint
#: submissions and a spawn.  It is the digest this run's log had when the
#: simulator kept the log itself and every producer wrote its own line.
TRACE_DIGEST = "b794e0b0fd1f193476998247cd78057ad663bf959d1b63def8572c022182a4c7"

KINDS = (
    BlockCommitted, ChainReorg, RoundEvent, CheckpointSubmitted,
    CrossMsgSubmitted, HealthSampled, WaitTimedOut, Noted,
)


class Witness(Plane):
    """Subscribes to everything; keeps each record in a form that can be
    compared across runs (node and block objects by their ids)."""

    observes = {kind: "on_record" for kind in KINDS}

    def __init__(self, section="witness"):
        self.section = section
        self.records = []

    def on_record(self, record):
        self.records.append(record)

    def of(self, kind):
        return [record for record in self.records if isinstance(record, kind)]

    def rendered(self):
        out = []
        for record in self.records:
            if isinstance(record, BlockCommitted):
                node, block, events = record
                out.append(("commit", node.node_id, block.cid.hex(), events))
            elif isinstance(record, WaitTimedOut):
                out.append(("wait-timeout", record.diagnosis["label"]))
            elif isinstance(record, HealthSampled):
                out.append(("health", sorted(record.latest)))
            else:
                out.append((type(record).__name__,) + tuple(record))
        return out


def _run(*planes, traced=False):
    """Rootnet (PoA, a slot engine) + a Tendermint subnet: one top-down
    transfer, a checkpoint window or two, health sampling, and a
    ``wait_for`` that cannot succeed; *traced* attaches a trace log at
    construction."""
    system = HierarchicalSystem(
        seed=17, root_validators=3, root_block_time=0.5, checkpoint_period=4,
        wallet_funds={"alice": 100_000},
    )
    if traced:
        system.sim.attach(TraceLog(system.sim))
    system.start()
    for plane in planes:
        system.sim.attach(plane)
    HealthProbe(system, interval=1.0).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="bft", engine="tendermint", validators=4,
                     block_time=0.5, checkpoint_period=4)
    )
    alice = system.wallets["alice"]
    system.fund_subnet(alice, sub, alice.address, 7_000)
    system.run_for(8)
    assert not system.wait_for(lambda: False, timeout=1.0, label="never")
    return system, sub


def test_a_plane_defined_here_receives_every_record_kind():
    witness = Witness()
    system, sub = _run(witness)
    alice = system.wallets["alice"].address

    # Commits: every validator of both chains reports its own, and the
    # block that executed the fund() carries its receipt events.
    commits = witness.of(BlockCommitted)
    validators = {node.node_id for s in system.subnets for node in system.nodes(s)}
    assert {commit.node.node_id for commit in commits} == validators
    funded = [
        commit for commit in commits
        if any(kind == "crossmsg.topdown" and payload[5] == alice.raw
               for kind, payload in commit.events)
    ]
    assert {commit.node.node_id for commit in funded} == {
        node.node_id for node in system.nodes("/root")
    }
    assert all(commit.block.cid == funded[0].block.cid for commit in funded)

    # Rounds: the slot engine narrates proposals and commits, Tendermint
    # its votes and locks too.
    rounds = witness.of(RoundEvent)

    def kinds(subnet):
        return {event.kind for event in rounds if event.subnet == subnet}

    assert {"propose", "commit"} <= kinds("/root")
    assert {"round_start", "propose", "vote", "lock", "commit"} <= kinds(sub.path)
    assert all(event.fields["height"] >= 1 for event in rounds)

    # Hierarchy: the submission of the transfer, and a checkpoint on its
    # way to the parent's subnet actor.
    assert CrossMsgSubmitted("/root", sub.path, alice.raw, 7_000) in witness.of(
        CrossMsgSubmitted
    )
    submitted = witness.of(CheckpointSubmitted)
    assert submitted and all(s.subnet == sub.path for s in submitted)
    assert system.sim.metrics.counter(f"checkpoint.{sub.path}.submitted").value == len(
        submitted
    )

    # Health rounds carry every subnet alive at the time, each round its
    # own sample; the forced timeout carries the diagnosis the system keeps.
    sampled = witness.of(HealthSampled)
    assert len(sampled) >= 8
    assert set(sampled[0].latest) == {"/root"}
    assert set(sampled[-1].latest) == {"/root", sub.path}
    times = [h.latest["/root"]["time"] for h in sampled]
    assert times == sorted(set(times))
    (timed_out,) = [t for t in witness.of(WaitTimedOut) if t.diagnosis["label"] == "never"]
    assert timed_out.diagnosis is system.last_timeout

    # What only the trace log renders: the subnet's spawn.
    assert Noted("subnet.spawned", sub.path, ("n=4", "tendermint")) in witness.of(Noted)


def test_an_unwatched_run_builds_no_record(monkeypatch):
    built = []
    for kind in KINDS:

        def counting(cls, *fields, _new=kind.__new__):
            built.append(cls)
            return _new(cls, *fields)

        monkeypatch.setattr(kind, "__new__", staticmethod(counting))

    def line(record, *fields, _init=TraceRecord.__init__):
        built.append(TraceRecord)
        _init(record, *fields)

    monkeypatch.setattr(TraceRecord, "__init__", line)

    system, _sub = _run()
    assert system.node("/root").head().height > 10  # plenty happened
    assert built == []

    _run(Witness())
    assert {kind for kind in KINDS if kind in built} == set(KINDS) - {ChainReorg}
    assert TraceRecord not in built
    built.clear()
    _run(traced=True)
    assert TraceRecord in built and Noted in built


def test_watching_changes_nothing_and_attach_order_changes_no_view():
    only_traced, _ = _run(traced=True)
    a1, b1 = Witness("a"), Witness("b")
    a_then_b, _ = _run(a1, b1, traced=True)
    a2, b2 = Witness("a"), Witness("b")
    _run(b2, a2)

    trace = a_then_b.sim.planes["trace"].summary()
    assert trace == only_traced.sim.planes["trace"].summary()
    assert trace == {"records": 138, "digest": TRACE_DIGEST}
    assert a1.rendered() == b1.rendered() == a2.rendered() == b2.rendered()
    assert len(a1.records) > 100


def test_detach_mid_run_stops_delivery():
    witness = Witness()
    system, _ = _run(witness)
    system.sim.detach(witness)
    seen = len(witness.records)
    system.run_for(3)
    assert len(witness.records) == seen
    assert system.sim.planes == {}

