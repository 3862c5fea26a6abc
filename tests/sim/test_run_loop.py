"""The folded run loop is still the scheduler.

``run_until``, ``run`` and repeated ``step`` are three ways into one loop
(``Simulator._drain``); they must agree event for event on cancellation,
halting, the event cap, dispatch hooks and failures — and the dispatch
label must stay readable from another thread, which is what the sampling
profiler relies on.
"""

import threading

import pytest

from repro.net.transport import Transport
from repro.sim.events import EventQueue
from repro.sim.scheduler import SimulationError, Simulator, current_dispatch_label


def _by_run_until(sim):
    sim.run_until(100.0)


def _by_run(sim):
    sim.run()


def _by_step(sim):
    while sim.step():
        pass


DRIVERS = [_by_run_until, _by_run, _by_step]


def _scenario(sim, fired):
    """Ties, a cancel from inside a callback, a cancelled head, a timer."""
    def note(name):
        fired.append((sim.now, name, current_dispatch_label()))

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
    assert [name for _t, name, _l in fired] == [
        "killer", "tie", "spawned", "tick", "kw", "tick",
    ]
    assert all(label == name for _t, name, label in fired)
    assert other.events_executed == sim.events_executed == 7  # + the stop event
    assert other.dispatch.counts == sim.dispatch.counts
    assert len(other.queue) == 0


def test_run_until_advances_the_clock_to_the_horizon_on_an_empty_queue():
    sim = Simulator()
    assert sim.run_until(5.0) == 0
    assert sim.now == 5.0
    assert sim.step() is False and sim.now == 5.0
    assert sim.run() == 0 and sim.now == 5.0


@pytest.mark.parametrize("driver", [_by_run_until, _by_run])
def test_halt_stops_after_the_halting_event(driver):
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.halt()))
    sim.schedule(2.0, fired.append, "b")
    driver(sim)
    assert fired == ["a"] and sim.now == 1.0 and len(sim.queue) == 1
    driver(sim)  # a new run clears the halt
    assert fired == ["a", "b"]
    # step() executes exactly one event, whatever an earlier run left behind.
    sim.schedule(1.0, fired.append, "c")
    sim.halt()
    assert sim.step() is True and fired[-1] == "c"


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
def test_a_pre_dispatch_hook_that_cancels_suppresses_the_event(driver):
    sim = Simulator()
    fired = []
    sim.dispatch.on_pre_dispatch(lambda event: event.cancel() if event.label == "drop" else None)
    sim.schedule(1.0, fired.append, "dropped", label="drop")
    sim.schedule(2.0, fired.append, "kept", label="keep")
    driver(sim)
    assert fired == ["kept"]
    assert sim.dispatch.suppressed == {"drop": 1}
    assert sim.dispatch.counts == {"keep": 1}
    assert [r.subject for r in sim.trace.records if r.kind == "dispatch.suppressed"] == ["drop"]
    assert sim.events_executed == 2  # a suppressed event was still popped


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
    assert current_dispatch_label() is None
    assert sim.now == 1.0 and sim.dispatch.counts == {"bad": 1}
    driver(sim)  # the loop is reusable after a failure
    assert seen == [("bad", True), ("good", True)]


def test_the_dispatch_label_is_readable_from_a_second_thread():
    """The sampling profiler's contract: another thread, given the sim
    thread's id, sees the label being dispatched right now."""
    sim = Simulator()
    sim_thread = threading.get_ident()
    inside, release = threading.Event(), threading.Event()
    seen = {}

    def watcher():
        inside.wait(5.0)
        seen["during"] = current_dispatch_label(sim_thread)
        seen["own"] = current_dispatch_label()
        release.set()

    def slow():
        inside.set()
        assert release.wait(5.0)

    thread = threading.Thread(target=watcher)
    thread.start()
    sim.schedule(1.0, slow, label="slow")
    sim.run()
    thread.join()
    assert seen == {"during": "slow", "own": None}
    assert current_dispatch_label(sim_thread) is None

    # A simulator driven on a worker thread publishes under that thread's id.
    labels = {}

    def drive():
        worker = Simulator()
        worker.schedule(
            1.0, lambda: labels.update(mine=current_dispatch_label()), label="worker"
        )
        worker.run()

    other = threading.Thread(target=drive)
    other.start()
    other.join()
    assert labels == {"mine": "worker"} and current_dispatch_label() is None


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
    assert transport.fanout("a", ("a", "b"), "ping", None, settled=("b",), settled_until=9.0) == (2, 1)
    sim.run_until(3.5)
    queued = sim.events_executed + len(sim.queue)
    assert len(pushes) == queued == 8  # 2 one-shots, 4 timer arms, 2 materialised sends
    stop()
