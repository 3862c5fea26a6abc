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


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    event.cancel()
    queue.note_cancel()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


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
