"""The folded run loop is still the scheduler.

``run_until``, ``run`` and ``run_until`` re-entered in short slices are
three ways into one loop (``Simulator._drain``); they must agree event for
event on cancellation, the event cap, dispatch hooks and failures.
"""

import pytest

from repro.net.transport import Transport
from repro.sim.events import EventQueue
from repro.sim.scheduler import SimulationError, Simulator


def _by_run_until(sim):
    sim.run_until(100.0)


def _by_run(sim):
    sim.run()


def _by_slices(sim):
    """Re-enter the loop at horizons that fall between and on event times."""
    while sim.queue:
        sim.run_until(sim.now + 0.25)


DRIVERS = [_by_run_until, _by_run, _by_slices]


def _scenario(sim, fired):
    """Ties, a cancel from inside a callback, a cancelled head, a timer."""
    def note(name):
        fired.append((sim.now, name))

    head = sim.schedule(0.5, note, "head", label="head")
    sim.cancel(head)
    victim = sim.schedule(2.0, note, "victim", label="victim")

    def killer():
        note("killer")
        sim.cancel(victim)
        sim.schedule(0.0, note, "spawned", label="spawned")

    sim.schedule(1.0, killer, label="killer")
    sim.schedule(1.0, note, "tie", label="tie")
    sim.schedule_at(3.0, note, "kw", label="kw")
    stop = sim.every(1.5, lambda: note("tick"), label="tick")
    sim.schedule(4.0, stop, label="stop")


@pytest.mark.parametrize("driver", DRIVERS)
def test_drivers_agree_event_for_event(driver):
    reference, fired = [], []
    sim = Simulator(seed=1)
    _scenario(sim, reference)
    _by_run_until(sim)
    other = Simulator(seed=1)
    _scenario(other, fired)
    driver(other)
    assert fired == reference
    assert [name for _t, name in fired] == [
        "killer", "tie", "spawned", "tick", "kw", "tick",
    ]
    assert other.events_executed == sim.events_executed == 7  # + the stop event
    assert other.dispatch.counts == sim.dispatch.counts
    assert len(other.queue) == 0


def test_run_until_advances_the_clock_to_the_horizon_on_an_empty_queue():
    sim = Simulator()
    assert sim.run_until(5.0) == 0
    assert sim.now == 5.0
    assert sim.run() == 0 and sim.now == 5.0


def test_max_events_raises_after_exactly_that_many():
    for driver_call in (lambda s: s.run_until(10.0, max_events=3), lambda s: s.run(max_events=3)):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0 + i, fired.append, i)
        with pytest.raises(SimulationError, match="max_events=3"):
            driver_call(sim)
        assert fired == [0, 1, 2] and sim.events_executed == 3


@pytest.mark.parametrize("driver", DRIVERS)
def test_a_pre_dispatch_hook_sees_each_event_just_before_it_fires(driver):
    sim = Simulator()
    seen = []
    sim.dispatch.on_pre_dispatch(lambda event: seen.append(("pre", event.label)))
    sim.schedule(1.0, seen.append, ("fire", "a"), label="a")
    sim.schedule(2.0, seen.append, ("fire", "b"), label="b")
    driver(sim)
    assert seen == [("pre", "a"), ("fire", "a"), ("pre", "b"), ("fire", "b")]
    assert sim.dispatch.counts == {"a": 1, "b": 1}


@pytest.mark.parametrize("driver", DRIVERS)
def test_a_raising_callback_still_runs_post_hooks_and_unwinds_the_label(driver):
    sim = Simulator()
    seen = []
    sim.dispatch.on_post_dispatch(lambda event, elapsed: seen.append((event.label, elapsed >= 0)))

    def boom():
        raise RuntimeError("exploded")

    sim.schedule(1.0, boom, label="bad")
    sim.schedule(2.0, lambda: None, label="good")
    with pytest.raises(RuntimeError, match="exploded"):
        driver(sim)
    assert seen == [("bad", True)]
    assert sim.now == 1.0 and sim.dispatch.counts == {"bad": 1}
    driver(sim)  # the loop is reusable after a failure
    assert seen == [("bad", True), ("good", True)]


def test_push_is_the_only_way_onto_the_heap(monkeypatch):
    pushes = []
    original = EventQueue.push

    def counting_push(self, *args, **kwargs):
        pushes.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EventQueue, "push", counting_push)
    sim = Simulator()
    transport = Transport(sim)
    transport.register("a", lambda message: None)
    transport.register("b", lambda message: None)
    sim.schedule(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    stop = sim.every(1.0, lambda: None)
    transport.send("a", "b", "ping", None)
    rows = (transport.row("a"), transport.row("b", record={"k"}))
    assert transport.fanout("a", rows, "ping", None, key="k", until=9.0) == (2, 1)
    sim.run_until(3.5)
    queued = sim.events_executed + len(sim.queue)
    assert len(pushes) == queued == 8  # 2 one-shots, 4 timer arms, 2 materialised sends
    stop()
