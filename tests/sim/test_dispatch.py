"""Unit tests for the instrumented event-dispatch bus."""

import pytest

from repro.sim.observe import Noted
from repro.sim.scheduler import Simulator
from repro.sim.tracing import TraceLog


def test_dispatch_counts_per_label():
    sim = Simulator()
    sim.schedule(1.0, lambda: None, label="tick")
    sim.schedule(2.0, lambda: None, label="tick")
    sim.schedule(3.0, lambda: None, label="other")
    sim.run()
    assert sim.dispatch.counts == {"tick": 2, "other": 1}
    assert sim.dispatch.wall_seconds["tick"] >= 0.0
    assert sim.dispatch.max_wall_seconds["tick"] >= 0.0


def test_dispatch_label_falls_back_to_callback_name():
    sim = Simulator()

    def my_callback():
        pass

    sim.schedule(1.0, my_callback)
    sim.run()
    assert sim.dispatch.counts == {"my_callback": 1}


def test_pre_dispatch_hook_sees_every_event_until_removed():
    sim = Simulator()
    fired = []
    seen = []
    remove = sim.dispatch.on_pre_dispatch(lambda event: seen.append(sim.dispatch.label_of(event)))
    sim.schedule(1.0, lambda: fired.append("a"), label="net:deliver")
    sim.schedule(2.0, lambda: fired.append("b"), label="tick")
    sim.run()
    assert fired == ["a", "b"]
    assert seen == ["net:deliver", "tick"]
    assert sim.dispatch.counts == {"net:deliver": 1, "tick": 1}

    remove()
    sim.schedule(1.0, lambda: fired.append("c"), label="net:deliver")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert seen == ["net:deliver", "tick"]


def test_post_dispatch_hook_receives_elapsed_and_runs_on_error():
    sim = Simulator()
    observed = []
    sim.dispatch.on_post_dispatch(
        lambda event, elapsed: observed.append((sim.dispatch.label_of(event), elapsed))
    )
    sim.schedule(1.0, lambda: None, label="ok")

    def boom():
        raise RuntimeError("exploded")

    sim.schedule(2.0, boom, label="bad")
    with pytest.raises(RuntimeError):
        sim.run()
    labels = [label for label, _ in observed]
    assert labels == ["ok", "bad"]
    assert all(elapsed >= 0.0 for _, elapsed in observed)
    # The failing event is still accounted.
    assert sim.dispatch.counts == {"ok": 1, "bad": 1}


def test_removed_post_dispatch_hook_stops_running():
    sim = Simulator()
    seen = []
    remove = sim.dispatch.on_post_dispatch(lambda event, _elapsed: seen.append(event.label))
    sim.schedule(1.0, lambda: None, label="before")
    sim.run()
    remove()
    remove()  # idempotent
    sim.schedule(1.0, lambda: None, label="after")
    sim.run()
    assert seen == ["before"]


def test_summary_sorted_busiest_first():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda: None, label="busy")
    sim.schedule(5.0, lambda: None, label="rare")
    sim.run()
    rows = sim.dispatch.summary()
    assert [row["label"] for row in rows] == ["busy", "rare"]
    busy = rows[0]
    assert busy["events"] == 3
    assert busy["wall_s"] >= busy["mean_s"] >= 0.0
    assert busy["max_s"] >= busy["mean_s"]


def test_dispatch_instrumentation_preserves_trace_determinism():
    """Wall-clock timings must never leak into the deterministic trace."""

    def digest(seed):
        sim = Simulator(seed=seed)
        log = sim.attach(TraceLog(sim))
        stop = sim.every(0.5, lambda: sim.observe(Noted, "app.tick", "t", ()), label="app")
        sim.run_until(5.0)
        stop()
        return log.digest()

    assert digest(9) == digest(9)
