"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, lambda: fired.append("c"))
    queue.push(1.0, lambda: fired.append("a"))
    queue.push(2.0, lambda: fired.append("b"))
    while queue:
        queue.pop().fire()
    assert fired == ["a", "b", "c"]


def test_an_event_says_when_and_what():
    queue = EventQueue()
    event = queue.push(1.5, lambda: None, (), None, "net:deliver")
    assert repr(event) == "Event(t=1.500000, seq=0, net:deliver, pending)"
    event.cancel()
    assert repr(event).endswith("cancelled)")


def test_equal_times_fire_in_insertion_order():
    queue = EventQueue()
    fired = []
    for i in range(10):
        queue.push(5.0, lambda i=i: fired.append(i))
    while queue:
        queue.pop().fire()
    assert fired == list(range(10))


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    event = queue.push(1.0, lambda: fired.append("cancelled"))
    queue.push(2.0, lambda: fired.append("kept"))
    event.cancel()
    queue.note_cancel()
    assert len(queue) == 1
    queue.pop().fire()
    assert fired == ["kept"]


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(IndexError):
        queue.pop()


def test_a_queue_of_only_cancelled_events_is_empty():
    queue = EventQueue()
    for event in [queue.push(float(i), lambda: None) for i in range(3)]:
        event.cancel()
        queue.note_cancel()
    assert len(queue) == 0 and not queue
    with pytest.raises(IndexError):
        queue.pop()


def test_pop_due_returns_only_live_events_at_or_before_the_horizon():
    queue = EventQueue()
    head = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.push(3.0, lambda: None)
    head.cancel()
    queue.note_cancel()
    assert queue.pop_due(1.5) is None  # the cancelled head is not due
    assert queue.pop_due(2.0).time == 2.0  # inclusive of the horizon
    assert queue.pop_due(2.5) is None and len(queue) == 1


def test_len_counts_live_events():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(5)]
    assert len(queue) == 5
    events[0].cancel()
    queue.note_cancel()
    assert len(queue) == 4


def test_event_callback_args_and_kwargs():
    queue = EventQueue()
    results = []
    queue.push(1.0, lambda a, b=0: results.append(a + b), args=(1,), kwargs={"b": 2})
    queue.pop().fire()
    assert results == [3]
