"""SIM001 golden fixture: scheduler-state mutation outside sim/ (fires)."""


def fast_forward(sim, target):
    sim.now = target


def sneak_event(sim, callback):
    sim.queue.push(sim.now + 1.0, callback)


def sneak_events(sim, callbacks):
    push = sim.queue.push
    for callback in callbacks:
        push(sim.now + 1.0, callback)


def purge(sim):
    sim.queue._heap.clear()
