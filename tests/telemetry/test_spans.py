"""Span tracer: lifecycle across a 2-level hierarchy, determinism, digest."""

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.sim.observe import CrossMsgSubmitted
from repro.sim.scheduler import Simulator
from repro.telemetry import SpanTracer, enable_telemetry, route_shape, subnet_level
from tests.telemetry.feeds import commit


def _run_system(telemetry: bool):
    """Root + one subnet; one top-down and one bottom-up transfer."""
    system = HierarchicalSystem(seed=11)
    system.start()
    if telemetry:
        enable_telemetry(system)
    alice = system.create_wallet("alice", fund=500_000)
    sub = system.spawn_subnet(SubnetConfig(name="fast", validators=3, block_time=0.5))
    system.fund_subnet(alice, sub, alice.address, 50_000)
    system.run_for(20)
    system.cross_send(alice, sub, "/root", alice.address, 5_000)
    system.run_for(30)
    return system


@pytest.fixture(scope="module")
def traced_system():
    return _run_system(telemetry=True)


def _trace_by_value(tracer, value):
    for trace_id, info in tracer.trace_info.items():
        if info.get("value") == value:
            return tracer.trace(trace_id), info
    raise AssertionError(f"no trace with value {value}")


# ----------------------------------------------------------------------
# Path helpers
# ----------------------------------------------------------------------
def test_subnet_level():
    assert subnet_level("/root") == 0
    assert subnet_level("/root/a") == 1
    assert subnet_level("/root/a/b") == 2


def test_route_shape():
    assert route_shape("/root", "/root/a") == "topdown"
    assert route_shape("/root/a/b", "/root") == "bottomup"
    assert route_shape("/root/a", "/root/b") == "path"


# ----------------------------------------------------------------------
# Lifecycle across a 2-level hierarchy
# ----------------------------------------------------------------------
def test_topdown_span_lifecycle(traced_system):
    events, info = _trace_by_value(traced_system.sim.planes["spans"], 50_000)
    assert [e.phase for e in events] == ["submit", "enqueue", "deliver"]
    assert [e.subnet for e in events] == ["/root", "/root", "/root/fast"]
    assert info["status"] == "delivered"
    assert info["shape"] == "topdown"
    assert info["to_subnet"] == "/root/fast"
    times = [e.time for e in events]
    assert times == sorted(times)


def test_bottomup_span_lifecycle(traced_system):
    events, info = _trace_by_value(traced_system.sim.planes["spans"], 5_000)
    assert [e.phase for e in events] == ["submit", "enqueue", "deliver"]
    assert [e.subnet for e in events] == ["/root/fast", "/root/fast", "/root"]
    assert info["status"] == "delivered"
    assert info["shape"] == "bottomup"
    # Bottom-up rides a checkpoint window: the delivery hop dominates.
    assert events[2].time - events[1].time > 1.0


def test_hop_histograms_populated(traced_system):
    histograms = traced_system.sim.metrics.histograms
    for name in (
        "xnet.hop.submit.L0",
        "xnet.hop.submit.L1",
        "xnet.hop.topdown.L1",
        "xnet.hop.bottomup.L0",
        "xnet.e2e.topdown",
        "xnet.e2e.bottomup",
        "checkpoint.lag",
        "checkpoint.lag.L1",
        "checkpoint.hop.seal_to_submit",
        "checkpoint.hop.submit_to_commit",
    ):
        assert name in histograms, f"missing histogram {name}"
        assert histograms[name].count > 0, f"empty histogram {name}"
    summary = histograms["xnet.e2e.bottomup"].summary()
    assert summary["p50"] is not None and summary["p99"] >= summary["p50"]


def test_span_counters_consistent(traced_system):
    tracer = traced_system.sim.planes["spans"]
    metrics = traced_system.sim.metrics
    assert metrics.counter("xnet.spans.started").value == len(tracer.traces)
    assert metrics.counter("xnet.spans.delivered").value == tracer.delivered_count()
    summary = tracer.summary()
    assert summary["delivered"] + summary["failed"] + summary["in_flight"] == summary["traces"]
    assert summary["checkpoints"] > 0


def test_checkpoints_observed_seal_submit_commit(traced_system):
    entries = traced_system.sim.planes["spans"].checkpoints.values()
    complete = [
        e for e in entries
        if e.get("sealed") is not None
        and e.get("submitted") is not None
        and e.get("committed") is not None
    ]
    assert complete, "no checkpoint observed through its whole lifecycle"
    for entry in complete:
        assert entry["sealed"] <= entry["submitted"] <= entry["committed"]
        assert entry["source"] == "/root/fast"
        assert entry["parent"] == "/root"


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_hop_latencies_deterministic_under_fixed_seed(traced_system):
    def shape(system):
        tracer = system.sim.planes["spans"]
        return {
            trace_id: [(e.phase, e.subnet, e.time) for e in events]
            for trace_id, events in tracer.traces.items()
        }

    assert shape(_run_system(telemetry=True)) == shape(traced_system)


def test_digest_unchanged_with_telemetry(traced_system):
    plain = _run_system(telemetry=False)
    assert plain.sim.trace.digest() == traced_system.sim.trace.digest()
    # And telemetry wrote nothing to the trace log itself.
    assert len(plain.sim.trace) == len(traced_system.sim.trace)


# ----------------------------------------------------------------------
# Unit behaviour on a bare simulator
# ----------------------------------------------------------------------
def _topdown_event(cid="ab" * 16, value=7, kind="user"):
    return (
        "crossmsg.topdown",
        ("/root/a", 0, value, cid, "/root/a", "addr-1", kind),
    )


def _traced_sim():
    sim = Simulator(seed=1)
    return sim, sim.attach(SpanTracer(sim))


def _submit(sim):
    sim.observe(CrossMsgSubmitted, "/root", "/root/a", "addr-1", 7)


def test_duplicate_commits_deduplicate():
    sim, tracer = _traced_sim()
    for node in ("n0", "n1", "n2"):
        commit(sim, ("/root", node), [_topdown_event()])
    assert len(tracer.traces) == 1
    (events,) = tracer.traces.values()
    assert len(events) == 1
    assert sim.metrics.counter("xnet.spans.started").value == 1


def test_note_submit_binds_fifo_to_first_user_enqueue():
    sim, tracer = _traced_sim()
    sim.now = 1.0
    _submit(sim)
    sim.now = 2.0
    _submit(sim)
    sim.now = 5.0
    commit(sim, ("/root", "n0"), [_topdown_event(cid="aa" * 16)])
    commit(sim, ("/root", "n0"), [_topdown_event(cid="bb" * 16)])
    first = tracer.trace("aa" * 16)
    second = tracer.trace("bb" * 16)
    assert [e.phase for e in first] == ["submit", "enqueue"]
    assert first[0].time == 1.0  # FIFO: oldest submission binds first
    assert second[0].time == 2.0
    assert sim.metrics.histogram("xnet.hop.submit.L0").count == 2


def test_internal_messages_get_no_submit_binding():
    sim, tracer = _traced_sim()
    sim.now = 1.0
    _submit(sim)
    sim.now = 3.0
    commit(sim, ("/root", "n0"), [_topdown_event(kind="revert")])
    (events,) = tracer.traces.values()
    assert [e.phase for e in events] == ["enqueue"]  # submission not consumed
    assert tracer._pending_submits  # still waiting for a user enqueue


def test_uninstall_detaches():
    sim, tracer = _traced_sim()
    assert sim.planes["spans"] is tracer
    sim.detach(tracer)
    assert "spans" not in sim.planes
    commit(sim, ("/root", "n0"), [_topdown_event()])
    assert tracer.traces == {}
