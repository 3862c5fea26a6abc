"""Tie-order semantics: documented FIFO tie-breaking, permuted-insertion
digest stability, and the tie-shuffle race detector."""

import pytest

from repro.sim.events import EventQueue, tie_mix
from repro.sim.observe import Noted
from repro.sim.scheduler import Simulator
from repro.sim.tracing import TraceLog


# ----------------------------------------------------------------------
# Documented tie-breaking (satellite: every()/queue tie contract)
# ----------------------------------------------------------------------
def _run_trace(schedule_order):
    """Schedule labelled events (time, label) in the given order; return
    the trace digest of their firing order."""
    sim = Simulator(seed=1)
    log = sim.attach(TraceLog(sim))
    for time, label in schedule_order:
        sim.schedule_at(
            time, lambda lbl=label: sim.observe(Noted, "fired", lbl, ()), label=label
        )
    sim.run()
    return log.digest()


def test_permuted_insertion_of_distinct_times_yields_identical_digests():
    events = [(0.5, "a"), (1.0, "b"), (2.0, "c"), (3.5, "d"), (7.0, "e")]
    reference = _run_trace(events)
    assert _run_trace(list(reversed(events))) == reference
    assert _run_trace(events[2:] + events[:2]) == reference


def test_same_time_ties_fire_fifo_and_digest_tracks_insertion_order():
    ties = [(1.0, "a"), (1.0, "b"), (1.0, "c")]
    assert _run_trace(ties) == _run_trace(ties)
    # FIFO means insertion order IS the firing order, so permuting the
    # insertion of *ties* legitimately changes the schedule (and digest) —
    # exactly why tie-order dependence must be flushed out explicitly.
    assert _run_trace(ties) != _run_trace(list(reversed(ties)))


def test_every_ticks_interleave_fifo_by_registration_order():
    sim = Simulator(seed=1)
    fired = []
    sim.every(1.0, lambda: fired.append("first"))
    sim.every(1.0, lambda: fired.append("second"))
    sim.run_until(3.0)
    assert fired == ["first", "second"] * 3


# ----------------------------------------------------------------------
# tie_mix / queue mechanics
# ----------------------------------------------------------------------
def test_tie_mix_is_deterministic_and_seed_sensitive():
    assert tie_mix(7, 3) == tie_mix(7, 3)
    assert tie_mix(7, 3) != tie_mix(8, 3)
    perm_a = sorted(range(32), key=lambda s: tie_mix(1, s))
    perm_b = sorted(range(32), key=lambda s: tie_mix(2, s))
    assert perm_a != list(range(32))  # actually permutes
    assert perm_a != perm_b  # differently per seed


def test_set_tie_shuffle_requires_fresh_queue():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    with pytest.raises(RuntimeError):
        queue.set_tie_shuffle(3)


def test_tie_shuffle_permutes_ties_but_respects_time_order():
    sim = Simulator(seed=1, tie_shuffle=1234)
    fired = []
    for i in range(16):
        sim.schedule_at(1.0, lambda i=i: fired.append(i))
    sim.schedule_at(0.5, lambda: fired.append("early"))
    sim.schedule_at(2.0, lambda: fired.append("late"))
    sim.run()
    assert fired[0] == "early" and fired[-1] == "late"
    middle = fired[1:-1]
    assert sorted(middle) == list(range(16))
    assert middle != list(range(16))  # ties actually permuted
    # Deterministic per shuffle seed:
    sim2 = Simulator(seed=1, tie_shuffle=1234)
    fired2 = []
    for i in range(16):
        sim2.schedule_at(1.0, lambda i=i: fired2.append(i))
    sim2.run()
    assert fired2 == middle


def test_tie_shuffle_env_var_wiring(monkeypatch):
    monkeypatch.setenv("REPRO_TIE_SHUFFLE", "99")
    sim = Simulator(seed=1)
    assert sim.tie_shuffle == 99
    assert sim.queue.tie_shuffle == 99
    monkeypatch.delenv("REPRO_TIE_SHUFFLE")
    assert Simulator(seed=1).tie_shuffle is None


# ----------------------------------------------------------------------
# The race detector: order-dependent handlers change the outcome digest,
# order-independent handlers do not.
# ----------------------------------------------------------------------
def _racy_outcome(tie_shuffle):
    """A handler whose outcome depends on tie order (last writer wins)."""
    sim = Simulator(seed=1, tie_shuffle=tie_shuffle)
    state = {}
    for i in range(8):
        sim.schedule_at(1.0, lambda i=i: state.__setitem__("winner", i))
    sim.run()
    return state["winner"]


def _clean_outcome(tie_shuffle):
    """A commutative handler: any tie order yields the same end state."""
    sim = Simulator(seed=1, tie_shuffle=tie_shuffle)
    state = {"total": 0}
    for i in range(8):
        sim.schedule_at(1.0, lambda i=i: state.__setitem__("total", state["total"] + i))
    sim.run()
    return state["total"]


def test_tie_shuffle_detects_order_dependent_state():
    outcomes = {_racy_outcome(s) for s in (None, 1, 2, 3, 4)}
    assert len(outcomes) > 1, "the detector must expose last-writer-wins races"


def test_tie_shuffle_keeps_commutative_state_invariant():
    outcomes = {_clean_outcome(s) for s in (None, 1, 2, 3, 4)}
    assert outcomes == {sum(range(8))}
