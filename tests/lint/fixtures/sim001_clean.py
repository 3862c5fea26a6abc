"""SIM001 golden fixture: the dispatch API (must stay silent)."""


def fast_forward(sim, target):
    sim.run_until(target)


def add_event(sim, callback):
    return sim.schedule(1.0, callback, label="clean")


def heartbeat(sim, callback):
    stop = sim.every(5.0, callback)
    deadline = sim.now + 60.0
    sim.schedule_at(deadline, stop)
    return stop
