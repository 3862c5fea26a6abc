"""What a gossip peer keeps of a message: its id for the whole history
window, its payload only while the id is among the newest ``ADVERTISED``.

An IHAVE carries the envelopes it advertises and the IWANT hands the
missing ones back, so the advertiser answers from the envelope in hand and
its ``seen`` table decides only *whether* to answer.  Mutants each test
here kills:

- ``seen`` holding envelopes again: the payload outlives ``recent``;
- an IWANT answered without the ``msg_id in seen`` check: a never-seen id
  is served;
- ``recent`` not cut to ``len(seen_order)`` when ids expire: an expired
  payload stays alive and is advertised again.
"""

import gc
import weakref

from repro.net.gossip import ADVERTISED, GossipNetwork, GossipParams, PubsubEnvelope
from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator

HEARTBEAT = 0.5
HISTORY = 4
PEERS = ("p0", "p1", "p2")


class Payload:
    """Data whose collection a test can watch."""


class Fabric:
    """Three fully meshed peers on one topic; every point-to-point send
    (IHAVE, IWANT and their answers) is noted by message id only, so the
    note holds no payload alive."""

    def __init__(self):
        self.sim = Simulator(seed=1)
        self.transport = Transport(self.sim, Topology(UniformLatency(base=0.02, jitter=0.0)))
        self.network = GossipNetwork(
            self.sim, self.transport,
            GossipParams(heartbeat_interval=HEARTBEAT, history_length=HISTORY),
        )
        self.delivered = []
        for peer in PEERS:
            self.network.subscribe(
                peer, "t", lambda envelope, peer=peer: self.delivered.append((peer, envelope.msg_id))
            )
        self.sent = []
        send = self.transport.send

        def noting_send(src, dst, kind, payload):
            if kind == "gossip:ihave":
                ids = [envelope.msg_id for envelope in payload[1]]
            elif kind == "gossip:iwant":
                ids = [envelope.msg_id for envelope in payload]
            else:
                ids = [payload.msg_id]
            self.sent.append((src, dst, kind, ids))
            return send(src, dst, kind, payload)

        self.transport.send = noting_send

    def publish_watched(self):
        """Publish a fresh payload from p0; (msg id, weak reference to it)."""
        payload = Payload()
        return self.network.publish("p0", "t", payload), weakref.ref(payload)

    def seen_everywhere(self, msg_id):
        return all(msg_id in self.network._peers[peer].seen for peer in PEERS)

    def advertised(self, msg_id):
        return any(kind == "gossip:ihave" and msg_id in ids for _s, _d, kind, ids in self.sent)


def test_a_payload_pushed_out_of_the_newest_lives_on_as_an_id_only():
    fabric = Fabric()
    msg_id, watched = fabric.publish_watched()
    for _ in range(ADVERTISED):
        fabric.network.publish("p0", "t", "newer")
    fabric.sim.run_until(0.2)  # every copy has landed; the first heartbeat is at 0.5
    gc.collect()
    assert watched() is None
    assert fabric.seen_everywhere(msg_id)

    # The id still dedups: a copy arriving now is not delivered again.
    copy = PubsubEnvelope("t", "again", "p0", msg_id, 0.0)
    before = len(fabric.delivered)
    fabric.transport.send("p0", "p1", "gossip:pub", copy)
    fabric.sim.run_until(0.3)
    assert len(fabric.delivered) == before

    # An IWANT inside the window is answered with the envelope it carries;
    # one for an id the peer never recorded is not.
    stranger = PubsubEnvelope("t", "x", "p9", "p9:0", 0.0)
    fabric.sent.clear()
    fabric.transport.send("p2", "p1", "gossip:iwant", [copy, stranger])
    fabric.sim.run_until(0.4)
    answers = [(src, dst, ids) for src, dst, kind, ids in fabric.sent if kind == "gossip:pub"]
    assert answers == [("p1", "p2", [msg_id])]


def test_an_expiring_id_takes_its_payload_and_its_advertisement_with_it():
    fabric = Fabric()
    msg_id, watched = fabric.publish_watched()
    # Recorded before heartbeat 1, so heartbeats 1..HISTORY still hold it.
    fabric.sim.run_until(HEARTBEAT * (HISTORY + 0.5))
    assert fabric.advertised(msg_id) and fabric.seen_everywhere(msg_id)
    gc.collect()
    assert watched() is not None  # among the newest: IHAVE may still carry it

    fabric.sent.clear()
    fabric.sim.run_until(HEARTBEAT * (HISTORY + 1.5))  # heartbeat HISTORY + 1 expires it
    assert not any(msg_id in fabric.network._peers[peer].seen for peer in PEERS)
    assert not fabric.advertised(msg_id)
    gc.collect()
    assert watched() is None
