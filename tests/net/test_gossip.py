"""Unit tests for the gossip pubsub fabric."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.gossip import GossipNetwork, GossipParams
from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator


def make_network(n_peers, seed=1, loss_rate=0.0, params=None):
    sim = Simulator(seed=seed)
    topology = Topology(UniformLatency(base=0.02, jitter=0.01), loss_rate=loss_rate)
    network = GossipNetwork(sim, Transport(sim, topology), params)
    inboxes = {f"p{i}": [] for i in range(n_peers)}
    for peer, inbox in inboxes.items():
        network.subscribe(peer, "topic", inbox.append)
    return sim, network, inboxes


def test_publish_reaches_all_subscribers():
    sim, network, inboxes = make_network(10)
    network.publish("p0", "topic", "hello")
    sim.run_until(2.0)
    for peer, inbox in inboxes.items():
        assert [e.data for e in inbox] == ["hello"], f"{peer} missed the message"


def test_messages_not_duplicated():
    sim, network, inboxes = make_network(8)
    for i in range(5):
        network.publish("p0", "topic", f"m{i}")
    sim.run_until(3.0)
    for inbox in inboxes.values():
        assert sorted(e.data for e in inbox) == [f"m{i}" for i in range(5)]


def test_publisher_receives_own_message():
    sim, network, inboxes = make_network(3)
    network.publish("p1", "topic", "self")
    sim.run_until(1.0)
    assert [e.data for e in inboxes["p1"]] == ["self"]


def test_non_subscriber_can_publish():
    sim, network, inboxes = make_network(5)
    network.add_peer("outsider")
    network.publish("outsider", "topic", "from-outside")
    sim.run_until(2.0)
    for inbox in inboxes.values():
        assert [e.data for e in inbox] == ["from-outside"]


def test_unsubscribed_peer_stops_receiving():
    sim, network, inboxes = make_network(5)
    network.unsubscribe("p3", "topic")
    network.publish("p0", "topic", "after-leave")
    sim.run_until(2.0)
    assert inboxes["p3"] == []
    assert [e.data for e in inboxes["p4"]] == ["after-leave"]
    assert "p3" not in network._topic_members["topic"]


def test_a_resubscribed_peer_is_repaired_with_what_it_missed_once():
    sim, network, inboxes = make_network(5)
    network.unsubscribe("p3", "topic")
    network.publish("p0", "topic", "during")
    sim.run_until(2.0)
    assert inboxes["p3"] == []
    network.subscribe("p3", "topic", inboxes["p3"].append)
    network.publish("p0", "topic", "after")
    sim.run_until(6.0)
    # "after" by the mesh, "during" by IHAVE/IWANT repair: each exactly once.
    assert sorted(e.data for e in inboxes["p3"]) == ["after", "during"]


def test_add_peer_is_idempotent_and_keeps_subscriptions():
    sim, network, inboxes = make_network(3)
    network.add_peer("p1")  # registered by its subscribe: a second add is a no-op
    assert network.transport.is_registered("p1")
    network.publish("p0", "topic", "still-here")
    sim.run_until(2.0)
    assert [e.data for e in inboxes["p1"]] == ["still-here"]


def test_topics_are_isolated():
    sim = Simulator(seed=2)
    network = GossipNetwork(sim, Transport(sim, Topology()))
    inbox_a, inbox_b = [], []
    network.subscribe("x", "topic-a", inbox_a.append)
    network.subscribe("x", "topic-b", inbox_b.append)
    network.subscribe("y", "topic-a", lambda e: None)
    network.subscribe("y", "topic-b", lambda e: None)
    network.publish("y", "topic-a", "only-a")
    sim.run_until(1.0)
    assert [e.data for e in inbox_a] == ["only-a"]
    assert inbox_b == []


def test_lazy_gossip_heals_loss():
    """With heavy loss, heartbeat IHAVE/IWANT still propagates the message."""
    sim, network, inboxes = make_network(
        12, seed=5, loss_rate=0.35, params=GossipParams(degree=3, lazy_degree=4)
    )
    network.publish("p0", "topic", "resilient")
    sim.run_until(30.0)
    got = sum(1 for inbox in inboxes.values() if any(e.data == "resilient" for e in inbox))
    assert got == 12


def test_mesh_is_symmetric_and_bounded():
    _, network, _ = make_network(20, params=GossipParams(degree=4))
    for peer_id, state in network._peers.items():
        for neighbour in state.mesh.get("topic", set()):
            assert peer_id in network._peers[neighbour].mesh["topic"]


def test_envelope_metadata():
    sim, network, inboxes = make_network(3)
    msg_id = network.publish("p0", "topic", "meta")
    sim.run_until(1.0)
    envelope = inboxes["p1"][0]
    assert envelope.msg_id == msg_id
    assert envelope.publisher == "p0"
    assert envelope.topic == "topic"
    assert envelope.published_at == 0.0


def test_two_peer_topic():
    sim, network, inboxes = make_network(2)
    network.publish("p0", "topic", "pair")
    sim.run_until(1.0)
    assert [e.data for e in inboxes["p1"]] == ["pair"]


def test_deterministic_gossip_run():
    def run():
        sim, network, inboxes = make_network(10, seed=77)
        for i in range(3):
            network.publish(f"p{i}", "topic", f"m{i}")
        sim.run_until(5.0)
        return sim.events_executed, {
            p: sorted(e.data for e in inbox) for p, inbox in inboxes.items()
        }

    assert run() == run()


def test_shutdown_stops_heartbeat():
    sim, network, _ = make_network(4)
    network.shutdown()
    sim.run_until(10.0)
    # After shutdown and queue drain, no recurring heartbeat remains.
    assert len(sim.queue) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["subscribe", "unsubscribe", "publish", "beat"]),
    st.integers(0, 5), st.integers(0, 2),
), max_size=60))
@example([  # p0 keeps "topic" history it advertises, leaves it, and the topic grows
    ("publish", 1, 0), ("beat", 0, 0), ("unsubscribe", 0, 0), ("beat", 0, 0),
    ("subscribe", 4, 0), ("subscribe", 0, 1),
])
def test_cached_ihave_candidates_match_a_fresh_computation(ops):
    """Churn drops exactly the cached candidate lists it makes stale,
    including those of a peer that left a topic it still advertises."""
    sim, network, _inboxes = make_network(
        4, params=GossipParams(degree=2, lazy_degree=2, heartbeat_interval=0.5)
    )
    for op, peer, topic in ops:
        peer, topic = f"p{peer}", f"t{topic}" if topic else "topic"
        if op == "subscribe":
            network.subscribe(peer, topic, lambda envelope: None)
        elif op == "unsubscribe":
            network.unsubscribe(peer, topic)
        elif op == "publish":
            network.publish(peer, topic, "x")
        else:
            sim.run_until(sim.now + 0.5)
        for state in network._peers.values():
            for cached_topic, candidates in state.ihave_candidates.items():
                assert candidates == network._ihave_candidates(state, cached_topic)
