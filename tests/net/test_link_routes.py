"""Compiled routes against the per-copy link model they replace.

``Transport.fanout`` asks the topology for a link's route once per topology
version and draws loss and latency inline.  The reference below is the link
model as it ran before: every copy asks ``can_communicate``, then draws its
loss and its latency through the topology, with ``random.uniform``.  The two
must produce the same arrivals, the same drop counters and leave the
``net/transport`` RNG stream in the same state, over generated interleavings
of fanouts with partitions, heals and link degradations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator

PEERS = ("p0", "p1", "p2", "p3", "p4")
# rpc: endpoints share their peer's link; "ghost" is never registered.
ENDPOINTS = PEERS + ("rpc:p1", "rpc:p3", "ghost")


def sample_latency(topology, src, dst, rng):
    latency = topology.latency
    if latency.jitter == 0:
        drawn = latency.base
    else:
        drawn = rng.uniform(latency.base - latency.jitter, latency.base + latency.jitter)
    link = topology.link_profile(src, dst)
    if link is not None:
        drawn += link.extra_latency
    return drawn


def is_lost(topology, src, dst, rng):
    rate = topology.loss_rate
    link = topology.link_profile(src, dst)
    if link is not None and link.loss:
        # Independent loss processes: survive both to get through.
        rate = 1.0 - (1.0 - rate) * (1.0 - link.loss)
    return rate > 0 and rng.random() < rate


class PerCopy:
    """The reference link model: worked out afresh for every copy."""

    def __init__(self, topology, seed):
        self.topology = topology
        self.rng = Simulator(seed=seed).rng("net", "transport")
        self.arrivals = []
        self.counters = {"net.sent": 0, "net.lost": 0, "net.partitioned_drops": 0}

    def fanout(self, now, src, dsts, registered):
        topology = self.topology
        clean = topology.is_clean
        link_src = src[4:] if src.startswith("rpc:") else src
        for dst in dsts:
            if dst not in registered:
                continue
            link_dst = dst[4:] if dst.startswith("rpc:") else dst
            if clean:
                arrival = now + sample_latency(topology, link_src, link_dst, self.rng)
            elif not topology.can_communicate(link_src, link_dst):
                self.counters["net.partitioned_drops"] += 1
                continue
            elif is_lost(topology, link_src, link_dst, self.rng):
                self.counters["net.lost"] += 1
                continue
            else:
                arrival = now + sample_latency(topology, link_src, link_dst, self.rng)
            self.counters["net.sent"] += 1
            self.arrivals.append((dst, arrival))


class Routed:
    """The shipped transport, recording what lands where and when."""

    def __init__(self, topology, seed):
        self.sim = Simulator(seed=seed)
        self.transport = Transport(self.sim, topology)
        self.landed = []
        for endpoint in ENDPOINTS[:-1]:
            self.transport.register(
                endpoint,
                lambda message: self.landed.append((message.msg_id, message.dst, self.sim.now)),
            )

    def arrivals(self):
        self.sim.run()
        return [(dst, at) for _msg_id, dst, at in sorted(self.landed)]

    def counters(self):
        return {
            name: self.sim.metrics.counter(name).value
            for name in ("net.sent", "net.lost", "net.partitioned_drops")
        }


def play(config, script):
    topology = Topology(
        UniformLatency(base=0.05, jitter=config["jitter"]), loss_rate=config["loss"]
    )
    routed = Routed(topology, config["seed"])
    reference = PerCopy(topology, config["seed"])
    transport = routed.transport
    handles = []
    for dt, op, *args in script:
        routed.sim.run_until(routed.sim.now + dt)
        if op == "fanout":
            src, dsts = ENDPOINTS[args[0]], [ENDPOINTS[i] for i in args[1]]
            rows = [transport.row(d) for d in dsts if transport.is_registered(d)]
            transport.fanout(src, rows, "t", None)
            reference.fanout(routed.sim.now, src, dsts, transport._handlers)
        elif op == "partition":
            handles.append(transport.partition(*({PEERS[i] for i in group} for group in args[0])))
        elif op == "link":
            a, b, loss, extra = args
            handles.append(transport.set_link([PEERS[i] for i in a], [PEERS[i] for i in b],
                                              loss=loss, extra_latency=extra))
        elif op == "heal" and handles:
            transport.heal(handles[args[0] % len(handles)])  # maybe healed already
        elif op == "heal_all":
            transport.heal()
    return routed, reference


INDEX = st.integers(0, len(PEERS) - 1)
GROUP = st.frozensets(INDEX, min_size=1, max_size=3)
STEPS = st.one_of(
    st.tuples(st.just("fanout"), st.integers(0, len(ENDPOINTS) - 1),
              st.lists(st.integers(0, len(ENDPOINTS) - 1), max_size=6)),
    st.tuples(st.just("fanout"), INDEX, st.just(list(range(len(ENDPOINTS))))),
    st.tuples(st.just("partition"), st.lists(GROUP, min_size=1, max_size=2).filter(
        lambda groups: len(groups) == 1 or not groups[0] & groups[1])),
    st.tuples(st.just("link"), GROUP, GROUP,
              st.sampled_from([0.0, 0.2, 0.5]), st.sampled_from([0.0, 0.0, 0.3])),
    st.tuples(st.just("heal"), st.integers(0, 20)),
    st.tuples(st.just("heal_all")),
)
SCRIPTS = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.01, 0.2])).flatmap(
    lambda gap: STEPS.map(lambda step: gap + step)), min_size=1, max_size=40)
CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 10**6),
    "loss": st.sampled_from([0.0, 0.0, 0.1, 0.3]),
    "jitter": st.sampled_from([0.0, 0.02]),
})


@settings(max_examples=300, deadline=None)
@given(CONFIGS, SCRIPTS)
def test_routes_draw_what_the_per_copy_model_draws(config, script):
    routed, reference = play(config, script)
    assert routed.arrivals() == reference.arrivals
    assert routed.counters() == reference.counters
    assert routed.transport._rng.getstate() == reference.rng.getstate()


def test_a_route_cached_before_a_heal_is_not_used_after_it():
    partitioned = [(0.0, "partition", [{0}]), (0.0, "fanout", 0, [1])]
    routed, reference = play({"seed": 1, "loss": 0.0, "jitter": 0.02},
                             partitioned + [(0.0, "heal", 0), (0.1, "fanout", 0, [1])])
    assert routed.counters() == reference.counters == {
        "net.sent": 1, "net.lost": 0, "net.partitioned_drops": 1,
    }
    assert routed.arrivals() == reference.arrivals
    # The blocked route was cached, and went with the version it was made at.
    routed, _ = play({"seed": 1, "loss": 0.0, "jitter": 0.02}, partitioned)
    transport = routed.transport
    *_, routes = transport._model
    assert routes == {"p0": {"p1": (True, 0.0, 0.0)}}
    transport.heal()
    assert transport.send("p0", "p1", "t", None)
    *_, routes = transport._model
    assert routes == {}  # clean again: no route is looked up


def test_a_healed_degradation_stops_adding_latency():
    slow = [(0.0, "link", {0}, {1}, 0.0, 0.3), (0.0, "fanout", 0, [1, 2])]
    routed, reference = play({"seed": 2, "loss": 0.0, "jitter": 0.0},
                             slow + [(0.0, "heal", 0), (0.0, "fanout", 0, [1, 2])])
    assert routed.arrivals() == reference.arrivals == [
        ("p1", 0.35), ("p2", 0.05), ("p1", 0.05), ("p2", 0.05),
    ]
