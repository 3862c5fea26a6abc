"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim.scheduler import SimulationError, Simulator
from repro.sim.tracing import TraceLog


def test_schedule_advances_clock():
    sim = Simulator()
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(0.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [0.5, 1.5]
    assert sim.now == 1.5


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_executes_inclusive_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.schedule(3.0, lambda: fired.append(3))
    executed = sim.run_until(2.0)
    assert executed == 2
    assert fired == [1, 2]
    assert sim.now == 2.0


def test_run_until_resumes_where_the_last_horizon_left_off():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.run_until(1.5) == 1
    assert fired == [1] and sim.now == 1.5  # the clock stops at the horizon
    # Resuming picks up the remaining event and then advances the clock.
    assert sim.run_until(10.0) == 1
    assert fired == [1, 2] and sim.now == 10.0


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("no"))
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_every_repeats_and_stops():
    sim = Simulator()
    ticks = []
    stop = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run_until(3.5)
    assert ticks == [1.0, 2.0, 3.0]
    stop()
    sim.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_every_with_custom_start():
    sim = Simulator()
    ticks = []
    sim.every(2.0, lambda: ticks.append(sim.now), start_after=0.5)
    sim.run_until(5.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_every_rejects_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_run_until_max_events_guard():
    sim = Simulator()

    def spin():
        sim.schedule(0.0, spin)

    sim.schedule(0.0, spin)
    with pytest.raises(SimulationError):
        sim.run_until(1.0, max_events=100)


def test_rng_is_deterministic_and_scoped():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    assert sim_a.rng("x").random() == sim_b.rng("x").random()
    # Distinct scopes give distinct streams.
    assert sim_a.rng("y").random() != sim_a.rng("z").random()


def test_rng_scope_isolated_from_draw_order():
    sim_a = Simulator(seed=3)
    _ = sim_a.rng("first").random()
    value_after = sim_a.rng("second").random()

    sim_b = Simulator(seed=3)
    value_direct = sim_b.rng("second").random()
    assert value_after == value_direct


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


# ----------------------------------------------------------------------
# every(): a raising callback
# ----------------------------------------------------------------------
def test_every_callback_error_keeps_ticking():
    """Regression: one bad tick must not silently kill the recurrence."""
    sim = Simulator()
    log = sim.attach(TraceLog(sim))
    ticks = []

    def flaky():
        ticks.append(sim.now)
        if len(ticks) == 2:
            raise ValueError("transient failure")

    sim.every(1.0, flaky, label="flaky")
    sim.run_until(4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    assert log.count("timer.error") == 1
    (record,) = [r for r in log.records if r.kind == "timer.error"]
    assert record.subject == "flaky"
    assert "transient failure" in record.detail


# ----------------------------------------------------------------------
# Scheduler edge cases
# ----------------------------------------------------------------------
def test_stop_from_inside_callback_keeps_queue_accounting():
    """Cancelling a recurring timer's in-flight event must not steal a
    live-event slot from the queue (the event was already popped)."""
    sim = Simulator()
    ticks = []
    holder = {}

    def cb():
        ticks.append(sim.now)
        if len(ticks) == 2:
            holder["stop"]()

    holder["stop"] = sim.every(1.0, cb)
    sentinel = []
    sim.schedule(10.0, lambda: sentinel.append(True))
    sim.run()
    assert ticks == [1.0, 2.0]
    assert sentinel == [True]


def test_cancel_already_fired_event_is_noop_for_queue():
    sim = Simulator()
    fired = {}

    def cb():
        fired["event"] = event

    event = sim.schedule(1.0, cb)
    later = sim.schedule(2.0, lambda: fired.setdefault("later", True))
    sim.run_until(1.0)
    sim.cancel(fired["event"])  # already executed
    assert len(sim.queue) == 1  # `later` still counted as live
    sim.run()
    assert fired.get("later") is True
    assert later.popped


def test_schedule_at_now_ordering_ties_run_in_insertion_order():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    order = []
    sim.schedule_at(sim.now, lambda: order.append("a"))
    sim.schedule_at(sim.now, lambda: order.append("b"))
    sim.schedule(0.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 1.0


def test_rng_scope_deterministic_across_runs():
    def draws(seed):
        sim = Simulator(seed=seed)
        sim.schedule(1.0, lambda: None)
        sim.run()
        rng = sim.rng("component", 3, "sub")
        return [rng.random() for _ in range(5)]

    assert draws(11) == draws(11)
    assert draws(11) != draws(12)
