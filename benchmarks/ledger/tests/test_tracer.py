"""Self-time arithmetic and wrapper install/uninstall."""

import inspect
import json
import sys

import pytest

import tracer as tracer_module
from tracer import BOUNDARIES, OUTSIDE, LayerTracer, label_family


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeEvent:
    def __init__(self, label: str) -> None:
        self.label = label
        self.callback = lambda: None


class FakeBus:
    @staticmethod
    def label_of(event) -> str:
        return event.label


@pytest.fixture
def clocked(monkeypatch):
    """A tracer on a hand-driven clock, its wrappers built but not installed."""
    clock = FakeClock()
    monkeypatch.setattr(tracer_module, "perf_counter", clock)
    tracer = LayerTracer()
    tracer._label_of = FakeBus.label_of
    return tracer, clock


def _kind(tracer: LayerTracer, name: str) -> int:
    return tracer.kinds.index(name)


def test_self_time_of_a_nested_span_tree(clocked):
    tracer, clock = clocked

    def leaf():  # crypto: 2 s
        clock.now += 2.0

    traced_leaf = tracer._wrap(leaf, _kind(tracer, "encoding.canonical_encode"), [])

    def middle():  # storage: 1 s own, then the leaf twice, then 1 s own
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 1.0

    traced_middle = tracer._wrap(middle, _kind(tracer, "StateTree.root"), [])

    # One dispatched event: 3 s of its own code around the nested calls.
    event = FakeEvent("poa:/root/s0#1")
    tracer._on_pre(event)
    start = clock.now
    clock.now += 3.0
    traced_middle()
    traced_leaf()
    tracer._on_post(event, clock.now - start)
    tracer.freeze(20.0)

    assert tracer.kind("StateTree.root") == {"calls": 1, "total_s": 6.0, "self_s": 2.0}
    assert tracer.kind("encoding.canonical_encode") == {
        "calls": 3, "total_s": 6.0, "self_s": 6.0,
    }
    # Root: 11 s inclusive, 8 s covered by its two direct children.
    assert tracer.frozen["roots"]["poa"] == [1, 11.0, 3.0]
    totals = tracer.layer_totals()
    assert totals["storage"] == {"self_s": 2.0, "calls": 1}
    assert totals["crypto"] == {"self_s": 6.0, "calls": 3}
    assert totals["consensus"] == {"self_s": 3.0, "calls": 1}  # the poa root's own code
    assert totals["sim"]["self_s"] == 9.0  # 20 s of wall - 11 s inside dispatch
    assert sum(layer["self_s"] for layer in totals.values()) == pytest.approx(20.0)
    matrix = tracer.matrix()
    assert matrix["poa"] == {"crypto": 6.0, "storage": 2.0, "consensus": 3.0}
    assert matrix[OUTSIDE] == {"sim": 9.0}


def test_the_harness_own_events_are_taken_out_of_the_traced_wall(clocked):
    tracer, clock = clocked
    for label, seconds in (("poa:/root/s0#1", 3.0), ("ledger:mark", 2.0)):
        event = FakeEvent(label)
        tracer._on_pre(event)
        clock.now += seconds
        tracer._on_post(event, seconds)
    tracer.freeze(10.0)
    assert tracer.region_wall_s == pytest.approx(8.0)
    assert set(tracer.matrix()) == {"poa", OUTSIDE}
    assert tracer.matrix()[OUTSIDE] == {"sim": pytest.approx(5.0)}
    assert sum(layer["self_s"] for layer in tracer.layer_totals().values()) == pytest.approx(8.0)


def test_a_span_that_raises_still_closes(clocked):
    tracer, clock = clocked

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    traced = tracer._wrap(boom, _kind(tracer, "VM.apply_message"), [])
    with pytest.raises(ValueError):
        traced()
    assert tracer._stack == []
    tracer.freeze(1.0)
    assert tracer.kind("VM.apply_message")["calls"] == 1


def test_reset_zeroes_every_aggregate(clocked):
    tracer, clock = clocked
    traced = tracer._wrap(lambda: None, _kind(tracer, "EventQueue.push"), [])
    event = FakeEvent("net:gossip:pub")
    tracer._on_pre(event)
    traced()
    tracer._on_post(event, 0.5)
    tracer.reset()
    tracer.freeze(1.0)
    assert tracer.kind("EventQueue.push")["calls"] == 0
    assert tracer.frozen["roots"]["net:gossip:pub"] == [0, 0.0, 0.0]


def test_label_families():
    assert label_family("poa:/root/s0#1") == "poa"
    assert label_family("net:gossip:pub") == "net:gossip:pub"
    assert label_family("tm:timeout:propose") == "tm:timeout:propose"
    assert label_family("fault:churn:/root/s0") == "fault:churn"
    assert label_family("workload:pay") == "workload:pay"


def _boundary_snapshot() -> dict:
    """Every attribute the tracer may patch, by identity."""
    import importlib

    import repro.scenario  # noqa: F401  (pull in every layer first)
    import repro.telemetry  # noqa: F401

    snapshot = {}
    for _layer, target, attr in BOUNDARIES:
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        snapshot[(target, attr)] = inspect.getattr_static(owner, attr)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    snapshot[(name, attr)] = value
    from repro.sim.scheduler import DispatchBus

    snapshot[("DispatchBus", "on_post_dispatch")] = inspect.getattr_static(
        DispatchBus, "on_post_dispatch"
    )
    return snapshot


def test_install_then_uninstall_leaves_every_attribute_identical():
    from repro.hierarchy.gateway import SubnetCoordinatorActor

    before = _boundary_snapshot()
    exported_before = dict(SubnetCoordinatorActor.exported_methods())
    tracer = LayerTracer().install()
    patched = _boundary_snapshot()
    changed = [key for key in before if patched[key] is not before[key]]
    # Every boundary is wrapped, and so is every by-name import of one.
    for _layer, target, attr in BOUNDARIES:
        assert (target, attr) in changed
    assert ("repro.vm.message", "cached_cid") in changed
    assert ("repro.vm.message", "sign") in changed
    assert SubnetCoordinatorActor.exported_methods()["apply_topdown"] is not (
        exported_before["apply_topdown"]
    )
    tracer.uninstall()
    after = _boundary_snapshot()
    assert set(after) == set(before)
    assert [key for key in before if after[key] is not before[key]] == []
    assert SubnetCoordinatorActor.exported_methods() == exported_before


def test_traced_calls_are_counted_and_results_pass_through():
    from repro.crypto import canonical_encode
    from repro.crypto.cid import cid_of

    plain = cid_of(("x", 1))
    tracer = LayerTracer().install()
    try:
        from repro.crypto import cid as cid_module

        assert cid_module.cid_of(("x", 1)) == plain
        tracer.freeze(1.0)
        assert tracer.kind("cid.cid_of")["calls"] == 1
        # cid_of encodes through the (patched) name in its own namespace.
        assert tracer.kind("encoding.canonical_encode")["calls"] == 1
    finally:
        tracer.uninstall()
    assert canonical_encode(1) == b"i1:1"


def test_chrome_trace_has_nested_spans_with_parents(clocked, tmp_path):
    tracer, clock = clocked
    tracer._root_seq = tracer_module.SAMPLE_EVERY - 1  # the next root is sampled

    def leaf():
        clock.now += 1.0

    traced_leaf = tracer._wrap(leaf, _kind(tracer, "signature.sign"), [])

    def outer():
        clock.now += 1.0
        traced_leaf()

    traced_outer = tracer._wrap(outer, _kind(tracer, "Wallet.send"), [])
    event = FakeEvent("workload:pay")
    tracer._on_pre(event)
    start = clock.now
    traced_outer()
    tracer._on_post(event, clock.now - start)
    path = tmp_path / "TRACE_test.json"
    assert tracer.write_chrome_trace(str(path), "test") == 3
    events = [e for e in json.loads(path.read_text())["traceEvents"] if e["ph"] == "X"]
    by_name = {e["name"]: e for e in events}
    assert by_name["workload:pay"]["args"]["parent"] is None
    assert by_name["Wallet.send"]["args"]["parent"] == by_name["workload:pay"]["args"]["span"]
    assert by_name["signature.sign"]["args"]["parent"] == by_name["Wallet.send"]["args"]["span"]
    assert by_name["signature.sign"]["cat"] == "crypto"
    assert by_name["Wallet.send"]["dur"] == pytest.approx(2e6)
