"""The observation stream on a bare simulator: attach, observe, detach."""

from typing import NamedTuple

import pytest

from repro.sim.observe import Plane
from repro.sim.scheduler import SimulationError, Simulator


class Ping(NamedTuple):
    value: int


class Pong(NamedTuple):
    value: int


class Listener(Plane):
    """Keeps what it is handed, in order."""

    observes = {Ping: "on_ping", Pong: "on_pong"}

    def __init__(self, section="listener", log=None):
        self.section = section
        self.log = [] if log is None else log

    def on_ping(self, ping):
        self.log.append((self.section, ping))

    def on_pong(self, pong):
        self.log.append((self.section, pong))


def test_attach_registers_the_section_and_subscribes_the_handlers():
    sim = Simulator(seed=1)
    assert sim.planes == {}
    listener = Listener()
    assert sim.attach(listener) is listener
    assert sim.planes == {"listener": listener}

    sim.observe(Ping, 1)
    sim.observe(Pong, 2)
    assert listener.log == [("listener", Ping(1)), ("listener", Pong(2))]
    assert listener.summary() is None  # the base plane exports nothing


def test_a_section_holds_one_plane():
    sim = Simulator(seed=1)
    sim.attach(Listener())
    with pytest.raises(SimulationError, match="'listener' plane is already attached"):
        sim.attach(Listener())


def test_nothing_attached_means_nothing_is_built():
    built = []

    class Counted(NamedTuple):
        value: int

    original = Counted.__new__

    def counting(cls, *fields):
        built.append(fields)
        return original(cls, *fields)

    Counted.__new__ = staticmethod(counting)

    class Watcher(Plane):
        section = "watcher"
        observes = {Counted: "on_counted"}

        def __init__(self):
            self.seen = []

        def on_counted(self, record):
            self.seen.append(record)

    sim = Simulator(seed=1)
    sim.observe(Counted, 1)
    assert built == []

    watcher = sim.attach(Watcher())
    sim.observe(Counted, 2)
    assert built == [(2,)] and watcher.seen == [(2,)]

    # A plane listening for something else does not make this kind cost.
    sim.detach(watcher)
    sim.attach(Listener())
    sim.observe(Counted, 3)
    assert built == [(2,)]


def test_one_record_reaches_every_handler_in_attach_order():
    sim = Simulator(seed=1)
    log = []
    sim.attach(Listener("first", log))
    sim.attach(Listener("second", log))
    sim.observe(Ping, 7)
    assert [section for section, _ in log] == ["first", "second"]
    assert log[0][1] is log[1][1]  # the same record object, built once


def test_detach_stops_delivery_and_leaves_the_others_alone():
    sim = Simulator(seed=1)
    log = []
    first = sim.attach(Listener("first", log))
    second = sim.attach(Listener("second", log))
    sim.detach(first)
    assert sim.planes == {"second": second}
    sim.observe(Ping, 1)
    assert log == [("second", Ping(1))]

    # Detaching what is not attached (again, or an impostor under the same
    # section) changes nothing.
    sim.detach(first)
    sim.detach(Listener("second"))
    sim.observe(Ping, 2)
    assert log[-1] == ("second", Ping(2))

    sim.detach(second)
    assert sim.planes == {}
    sim.observe(Ping, 3)
    sim.observe(Pong, 4)
    assert log[-1] == ("second", Ping(2))


def test_handlers_are_looked_up_through_the_class_when_attaching(monkeypatch):
    """A wrapper installed on the class before a plane attaches is what the
    stream calls — how the ledger's layer tracer times each plane."""
    calls = []
    original = Listener.on_ping

    def timed(self, ping):
        calls.append(ping)
        return original(self, ping)

    monkeypatch.setattr(Listener, "on_ping", timed)
    sim = Simulator(seed=1)
    listener = sim.attach(Listener())
    sim.observe(Ping, 5)
    assert calls == [Ping(5)] and listener.log == [("listener", Ping(5))]
