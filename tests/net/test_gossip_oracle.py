"""Duplicate elision against its oracle.

The shipped fabric accounts a mesh copy without scheduling it when its
receiver has already recorded the message id, or when an earlier-landing
copy of the id is already queued for that receiver (it *rides* behind that
copy, and is queued after all if that copy is dropped unrecorded).  The
oracle is the fabric as it was before: every send becomes a ``NetMessage``
and an event.  Upper layers observe delivery, ordering and latency only, so
the two must agree on every handler delivery ``(sim time, peer, msg_id)``,
on every modelled send and drop, and on the RNG streams — over generated
runs that mix loss, jitter, partitions, link overrides, crash/restart, peer
churn and IHAVE/IWANT repair, and on the directed cases where a recorded id
stops being recorded, or a queued copy is dropped, while copies are in
flight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import HierarchicalSystem, SubnetConfig
from repro.net.gossip import GossipNetwork, GossipParams
from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator

HEARTBEAT = 0.5


class ScheduleEverything(Transport):
    """The oracle: no copy is ever settled, every send is an event."""

    def fanout(self, src, dsts, kind, payload, settled=(), settled_until=0.0, key=None):
        return super().fanout(src, dsts, kind, payload)


class Run:
    """One fabric driven by a script of ``(dt, op, *args)`` steps."""

    def __init__(self, transport_cls, config):
        self.sim = Simulator(seed=config["seed"])
        topology = Topology(
            UniformLatency(base=0.02, jitter=0.01 if config["jitter"] else 0.0),
            loss_rate=config["loss"],
        )
        self.transport = transport_cls(self.sim, topology)
        self.network = GossipNetwork(
            self.sim, self.transport,
            GossipParams(
                degree=config["degree"], lazy_degree=config["lazy_degree"],
                heartbeat_interval=HEARTBEAT, history_length=config["history_length"],
            ),
        )
        self.peers = [f"p{i}" for i in range(config["peers"])]
        self.topics = [f"t{i}" for i in range(config["topics"])]
        self.deliveries = []
        # (transport id, arrival, receiver, msg_id) of every copy that ran as an event
        self.pub_events = []
        self.sim.dispatch.on_pre_dispatch(self._note_pub_event)
        for peer in self.peers:
            self._join(peer)

    def _note_pub_event(self, event):
        if event.label == "net:gossip:pub":
            message = event.args[0]
            self.pub_events.append(
                (message.msg_id, event.time, message.dst, message.payload.msg_id)
            )

    def copies(self):
        """(receiver, msg_id) -> arrival times of its copies that ran as
        events, in the order they were sent."""
        copies = {}
        for _sent, arrival, dst, msg_id in sorted(self.pub_events):
            copies.setdefault((dst, msg_id), []).append(arrival)
        return copies

    def _topics_of(self, peer):
        # Everyone is on t0; the other topics have partial membership, so
        # bare publishers and unequal meshes are part of every run.
        index = self.peers.index(peer)
        return [t for i, t in enumerate(self.topics) if i == 0 or (index + i) % 2 == 0]

    def _join(self, peer):
        for topic in self._topics_of(peer):
            self.network.subscribe(
                peer, topic,
                lambda envelope, peer=peer: self.deliveries.append(
                    (self.sim.now, peer, envelope.msg_id)
                ),
            )

    def apply(self, op, *args):
        peer = self.peers[args[0] % len(self.peers)] if args else None
        if op == "publish":
            self.network.publish(peer, self.topics[args[1] % len(self.topics)], "data")
        elif op == "partition":
            self.transport.partition({self.peers[i % len(self.peers)] for i in args})
        elif op == "heal":
            self.transport.heal()
        elif op == "stop":
            for topic in self._topics_of(peer):
                self.network.unsubscribe(peer, topic)
        elif op in ("restart", "add"):
            self._join(peer)
        elif op == "remove":
            self.network.remove_peer(peer)
        elif op == "bounce":  # gone and straight back, copies still in flight
            self.network.remove_peer(peer)
            self._join(peer)
        elif op == "link":
            other = self.peers[args[1] % len(self.peers)]
            if other != peer:
                self.transport.set_link(peer, other, loss=args[2], extra_latency=args[3])

    def play(self, script, settle=4.0):
        for dt, op, *args in script:
            self.sim.run_until(self.sim.now + dt)
            self.apply(op, *args)
        self.sim.run_until(self.sim.now + settle)  # lazy repair gets its heartbeats
        self.network.shutdown()
        self.sim.run()  # drain: nothing is left in flight
        return self

    def counter(self, name):
        return self.sim.metrics.counter(name).value

    def observed(self):
        """Everything the layers above, and the link model, can tell apart."""
        return {
            "deliveries": self.deliveries,
            "counters": {
                name: self.counter(name)
                for name in ("net.sent", "net.lost", "net.partitioned_drops",
                             "gossip.published", "gossip.delivered")
            },
            "gossip.latency": self.sim.metrics.histogram("gossip.latency").summary(),
            "rng": (self.transport._rng.getstate(), self.network._rng.getstate()),
        }


def requeued(shipped, oracle):
    """Riders that became events after all: every other elided copy is one
    event the oracle ran and the shipped fabric did not."""
    elided = shipped.counter("gossip.duplicates_elided")
    return shipped.sim.events_executed - (oracle.sim.events_executed - elided)


def assert_equivalent(config, script, churn=False):
    shipped = Run(Transport, config).play(script)
    oracle = Run(ScheduleEverything, config).play(script)
    assert shipped.observed() == oracle.observed()
    assert oracle.counter("gossip.duplicates_elided") == 0
    # Drained: no queued copy is left for a later one to ride behind.
    assert not any(shipped.transport._queued.values())
    arrived = shipped.counter("net.delivered") + shipped.counter("gossip.duplicates_elided")
    latencies = [sorted(run.sim.metrics.histogram("net.latency").samples)
                 for run in (shipped, oracle)]
    if churn:
        # A copy in flight to a peer that is removed is dropped uncounted
        # by the oracle; the shipped fabric may have accounted it already.
        assert oracle.counter("net.delivered") <= arrived <= oracle.counter("net.sent")
    else:
        assert arrived == oracle.counter("net.delivered") == oracle.counter("net.sent")
        assert latencies[0] == latencies[1]
    return shipped, oracle


CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 10**6),
    "peers": st.integers(3, 9),
    "topics": st.integers(1, 3),
    "degree": st.integers(2, 6),
    "lazy_degree": st.integers(1, 4),
    "jitter": st.booleans(),
    "loss": st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.4]),
    "history_length": st.sampled_from([2, 2, 3, 6]),
})
PEER = st.integers(0, 8)
PUBLISH = st.tuples(st.just("publish"), PEER, st.integers(0, 2))
STEPS = st.one_of(
    PUBLISH,
    PUBLISH,
    PUBLISH,
    st.tuples(st.just("partition"), PEER, PEER, PEER),
    st.tuples(st.just("heal")),
    st.tuples(st.just("stop"), PEER),
    st.tuples(st.just("restart"), PEER),
    st.tuples(st.just("remove"), PEER),
    st.tuples(st.just("add"), PEER),
    st.tuples(st.just("bounce"), PEER),
    st.tuples(st.just("link"), PEER, PEER,
              st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.3, 2.5])),
)
# Mostly gaps inside one link latency (20 ms +- 10), where copies are in
# flight; sometimes a heartbeat or more, where history expires.
GAPS = st.sampled_from([0.0, 0.0, 0.01, 0.02, 0.03, 0.2, HEARTBEAT, 1.3])
STEP = st.tuples(GAPS, STEPS).map(lambda pair: [(pair[0],) + pair[1]])
# A peer leaves after the second hop has departed (10-30 ms after a publish)
# and before all of it has landed (20-60 ms), its own direct copy held back
# by a slow link: the forwards racing towards it are queued with riders
# behind them when it goes, which is the only time a rider has to become an
# event after all.
AMBUSH = st.tuples(
    GAPS, PEER, PEER, st.sampled_from([0.031, 0.035, 0.039]), st.sampled_from(["stop", "remove"]),
).map(lambda a: [
    (a[0], "link", a[1], a[2], 0.0, 0.3), (0.0, "publish", a[1], 0), (a[3], a[4], a[2]),
])
SCRIPTS = st.lists(st.one_of(*[STEP] * 9, AMBUSH), min_size=1, max_size=40).map(
    lambda chunks: [step for chunk in chunks for step in chunk]
)


def test_elision_is_invisible_to_everything_above_the_transport():
    reached = []

    @settings(max_examples=250, deadline=None)
    @given(CONFIGS, SCRIPTS)
    def check(config, script):
        churn = any(step[1] in ("remove", "bounce") for step in script)
        reached.append(requeued(*assert_equivalent(config, script, churn=churn)))

    check()
    assert sum(reached) > 0  # the generator does reach the re-queue path


def test_a_plain_flood_elides_and_still_counts_every_send():
    config = {"seed": 3, "peers": 7, "topics": 1, "degree": 6, "lazy_degree": 3,
              "jitter": True, "loss": 0.0, "history_length": 120}
    script = [(0.1, "publish", i, 0) for i in range(7)]
    shipped, oracle = assert_equivalent(config, script)
    elided = shipped.counter("gossip.duplicates_elided")
    assert shipped.sim.events_executed == oracle.sim.events_executed - elided
    # Fully meshed: each of the 7 peers forwards every message to 6, and one
    # copy per (message, receiver) runs as an event -- plus the copies it
    # displaced: each further event landed strictly earlier than every copy
    # sent before it, and was the one delivered if it was the last.
    copies = shipped.copies()
    assert len(copies) == 7 * 6
    assert all(later < earlier for arrivals in copies.values()
               for earlier, later in zip(arrivals, arrivals[1:]))
    assert sum(len(arrivals) for arrivals in copies.values()) == 7 * 7 * 6 - elided
    assert sorted(arrivals[-1] for arrivals in copies.values()) == sorted(
        t for t, peer, msg_id in shipped.deliveries if not msg_id.startswith(peer + ":"))
    assert any(len(arrivals) > 1 for arrivals in copies.values())


# p0 publishes at 0.1 s.  Its direct copy to p2 is 0.1 s slow (lands ~0.22 s);
# p1 hears the message at ~0.12 s and forwards it to p2 over a 0.3 s slow
# link: that copy (lands 0.4447 s) rides behind the direct one.  p2 is down
# when the direct copy lands and back when the rider would have.
AMBUSHED = {"seed": 3, "peers": 3, "topics": 1, "degree": 2, "lazy_degree": 1,
            "jitter": True, "loss": 0.0, "history_length": 120}
SLOW_LINKS = [(0.0, "link", 0, 2, 0.0, 0.1), (0.0, "link", 1, 2, 0.0, 0.3)]


@pytest.mark.parametrize("leave, rejoin", [("stop", "restart"), ("remove", "add")])
def test_a_rider_is_queued_after_all_when_the_copy_ahead_is_dropped(leave, rejoin):
    """The two ``return``s of the delivery path that record nothing: the
    receiver is not subscribed (``stop``), or not registered (``remove``)."""
    script = SLOW_LINKS + [(0.1, "publish", 0, 0), (0.05, leave, 2), (0.15, rejoin, 2)]
    shipped, oracle = assert_equivalent(AMBUSHED, script, churn=leave == "remove")
    assert requeued(shipped, oracle) == 1
    # The rider's own arrival, not the IHAVE repair a heartbeat later.
    assert [(round(t, 4), msg_id) for t, peer, msg_id in shipped.deliveries if peer == "p2"] == [
        (0.4447, "p0:0")
    ]
    if leave == "stop":  # counted and observed once, when it was sent
        assert shipped.counter("net.sent") == 30
        assert shipped.counter("net.delivered") + shipped.counter("gossip.duplicates_elided") == 30
        assert shipped.sim.metrics.histogram("net.latency").count == 30


def test_the_table_of_queued_copies_holds_only_what_is_in_flight():
    run = Run(Transport, AMBUSHED)
    for dt, *step in SLOW_LINKS + [(0.1, "publish", 0, 0)]:
        run.sim.run_until(run.sim.now + dt)
        run.apply(*step)
    run.sim.run_until(0.15)  # p1 has forwarded: two copies on their way to p2, one queued
    table = run.transport._queued["p2"]
    assert list(table) == ["p0:0"] and len(table["p0:0"].riders) == 1
    assert run.transport._queued["p0"] == run.transport._queued["p1"] == {}
    run.apply("remove", 2)  # the queued copy will find no handler, its rider neither
    assert "p2" not in run.transport._queued
    run.play([])
    assert run.transport._queued == {"p0": {}, "p1": {}}
    assert not [d for d in run.deliveries if d[1] == "p2"]


def test_riders_that_tie_with_the_copy_ahead():
    """Without jitter every forward of a hop lands at the same instant."""
    config = dict(AMBUSHED, peers=4, degree=3, jitter=False)
    shipped, oracle = assert_equivalent(config, [(0.1, "publish", 0, 0)])
    assert all(len(arrivals) == 1 for arrivals in shipped.copies().values())
    assert len(oracle.pub_events) == 3 * 4  # 3 sends each, the publisher's and the forwards
    # p2 is down while the two forwards to it land, both at 0.14 s: the rider
    # is queued at the instant it is due, and dropped like the copy ahead.
    script = [(0.0, "link", 0, 2, 0.0, 0.3), (0.1, "publish", 0, 0), (0.03, "stop", 2), (0.02, "restart", 2)]
    shipped, oracle = assert_equivalent(config, script)
    assert requeued(shipped, oracle) == 1
    assert shipped.copies()[("p2", "p0:0")] == [0.42000000000000004, 0.14, 0.14]
    assert [t for t, peer, _id in shipped.deliveries if peer == "p2"] == [0.42000000000000004]


def test_a_copy_that_lands_earlier_is_an_event_and_takes_over():
    config = dict(AMBUSHED, peers=4, degree=3)
    script = [(0.0, "link", 0, 2, 0.0, 0.1), (0.1, "publish", 0, 0)]
    shipped, oracle = assert_equivalent(config, script)
    # To p2: p0's slow direct copy, then p3's forward, which overtakes it,
    # then p1's forward, which lands after p3's and rides behind *that*.
    direct, overtaker, rider = oracle.copies()[("p2", "p0:0")]
    assert overtaker < rider < direct
    assert shipped.copies()[("p2", "p0:0")] == [direct, overtaker]
    assert [t for t, peer, _id in shipped.deliveries if peer == "p2"] == [overtaker]
    # p2 is down for the overtaker only: its rider is queued, the displaced
    # copy was an event all along.
    script += [(0.035, "stop", 2), (0.01, "restart", 2)]
    shipped, oracle = assert_equivalent(config, script)
    assert overtaker < 0.145 < rider and requeued(shipped, oracle) == 1
    assert shipped.copies()[("p2", "p0:0")] == [direct, overtaker, rider]
    assert [t for t, peer, _id in shipped.deliveries if peer == "p2"] == [rider]


def test_a_returning_peer_keeps_its_history_and_its_sequence_numbers():
    """Edge 1: ``remove_peer`` + ``add_peer`` while duplicates are in flight."""
    config = {"seed": 5, "peers": 5, "topics": 1, "degree": 4, "lazy_degree": 2,
              "jitter": True, "loss": 0.0, "history_length": 120}
    script = [
        (0.0, "publish", 1, 0),
        (0.1, "publish", 0, 0),
        # p1 has the message (one hop, <= 30 ms) while its neighbours'
        # forwards to it are still in flight; it leaves and comes straight back.
        (0.035, "remove", 1), (0.0, "add", 1),
        (0.5, "publish", 1, 0),
    ]
    shipped, _oracle = assert_equivalent(config, script, churn=True)
    to_p1 = [msg_id for _t, peer, msg_id in shipped.deliveries if peer == "p1"]
    assert to_p1 == ["p1:0", "p0:0", "p1:1"]  # no redelivery to the new incarnation
    # Its next publish got a fresh id, so nobody dropped it as a duplicate.
    assert sum(msg_id == "p1:1" for _t, _p, msg_id in shipped.deliveries) == 5


def test_a_copy_that_outlives_the_receivers_record_is_not_elided():
    """Edge 2: history expiry between send and arrival (a slow link)."""
    config = {"seed": 2, "peers": 4, "topics": 1, "degree": 3, "lazy_degree": 2,
              "jitter": True, "loss": 0.0, "history_length": 2}
    # p1 publishes (recorded at 0.1 s, two heartbeats of history: gone at
    # 1.5 s).  p3 hears it over fast links at ~0.14 s and forwards it to p1
    # over a link that is 2.5 s slow: p1 has the id recorded at send time,
    # but not when the copy lands.
    script = [(0.0, "link", 1, 3, 0.0, 2.5), (0.1, "publish", 1, 0)]
    shipped, _oracle = assert_equivalent(config, script)
    to_p1 = [msg_id for _t, peer, msg_id in shipped.deliveries if peer == "p1"]
    assert len(to_p1) > 1  # the expired id really was accepted again
    # The same for a rider.  p0 publishes; its copy to p1 is 0.1 s slow and
    # still queued (lands 0.226 s) when p3 forwards to p1 over the 2.5 s
    # link: that copy lands behind it, but after p1's record of it is gone.
    script = [(0.0, "link", 1, 3, 0.0, 2.5), (0.0, "link", 0, 1, 0.0, 0.1), (0.1, "publish", 0, 0)]
    shipped, _oracle = assert_equivalent(config, script)
    ahead, late = shipped.copies()[("p1", "p0:0")][:2]
    assert ahead < 0.6 < late  # settled_until: published at 0.1 s + one heartbeat of history
    assert late in [t for t, peer, _id in shipped.deliveries if peer == "p1"]


def test_tendermint_end_state_agrees_across_fifo_and_shuffled_ties(monkeypatch):
    """Elision changes which events exist, hence every tie-shuffle
    permutation; the value-level end state must not care."""
    digests = {}
    for tie_shuffle in (None, 1, 2, 3):
        if tie_shuffle is None:
            monkeypatch.delenv("REPRO_TIE_SHUFFLE", raising=False)
        else:
            monkeypatch.setenv("REPRO_TIE_SHUFFLE", str(tie_shuffle))
        system = HierarchicalSystem(
            seed=11, root_validators=3, root_block_time=0.5, wallet_funds={"alice": 10_000},
        ).start()
        subnet = system.spawn_subnet(
            SubnetConfig(name="tm", validators=7, engine="tendermint", block_time=0.5)
        )
        alice = system.wallets["alice"]
        system.fund_subnet(alice, subnet, alice.address, 1_000)
        assert system.wait_for(
            lambda: system.balance(subnet, alice.address) >= 1_000, timeout=60.0
        )
        system.run_until(30.0)
        assert system.sim.metrics.counter("gossip.duplicates_elided").value > 0
        digests[tie_shuffle] = system.end_state_digest()
    assert len(set(digests.values())) == 1, digests
