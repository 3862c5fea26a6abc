"""Unit tests for topology and transport."""

import pytest

from repro.net.topology import Topology, UniformLatency
from repro.net.transport import Transport
from repro.sim.scheduler import Simulator


def make_transport(seed=1, **topology_kwargs):
    sim = Simulator(seed=seed)
    transport = Transport(sim, Topology(**topology_kwargs))
    return sim, transport


def test_send_delivers_after_latency():
    sim, transport = make_transport()
    received = []
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: received.append((sim.now, m.payload)))
    assert transport.send("a", "b", "test", "hello")
    sim.run()
    assert len(received) == 1
    time, payload = received[0]
    assert payload == "hello"
    assert time > 0


def test_send_to_unknown_peer_fails():
    _, transport = make_transport()
    transport.register("a", lambda m: None)
    assert not transport.send("a", "ghost", "test", "x")


def test_duplicate_registration_rejected():
    _, transport = make_transport()
    transport.register("a", lambda m: None)
    with pytest.raises(ValueError):
        transport.register("a", lambda m: None)


def test_unregister_then_reregister():
    _, transport = make_transport()
    transport.register("a", lambda m: None)
    transport.unregister("a")
    transport.register("a", lambda m: None)
    assert transport.is_registered("a")


def test_partition_blocks_send():
    sim, transport = make_transport()
    received = []
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: received.append(m))
    handle = transport.topology.partition({"a"})
    assert not transport.send("a", "b", "test", "x")
    transport.topology.heal(handle)
    assert transport.send("a", "b", "test", "x")
    sim.run()
    assert len(received) == 1


def test_partition_allows_intra_group_traffic():
    sim, transport = make_transport()
    received = []
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: received.append(m))
    transport.topology.partition({"a", "b"})
    assert transport.send("a", "b", "test", "x")
    sim.run()
    assert len(received) == 1


def test_heal_all():
    _, transport = make_transport()
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: None)
    transport.topology.partition({"a"})
    transport.topology.partition({"b"})
    transport.topology.heal_all()
    assert transport.send("a", "b", "t", "x")


def test_loss_rate_drops_messages():
    sim, transport = make_transport(loss_rate=0.5)
    delivered = []
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: delivered.append(m))
    sent = sum(1 for _ in range(200) if transport.send("a", "b", "t", "x"))
    sim.run()
    assert sent < 200  # some dropped at send
    assert len(delivered) == sent  # the rest all arrive


def test_invalid_loss_rate():
    with pytest.raises(ValueError):
        Topology(loss_rate=1.0)


def test_uniform_latency_bounds():
    import random

    model = UniformLatency(base=0.1, jitter=0.05)
    rng = random.Random(0)
    samples = [model.sample("a", "b", rng) for _ in range(100)]
    assert all(0.05 <= s <= 0.15 for s in samples)


def test_uniform_latency_zero_jitter_is_constant():
    import random

    model = UniformLatency(base=0.1, jitter=0.0)
    assert model.sample("a", "b", random.Random(0)) == 0.1


def test_uniform_latency_rejects_negative():
    with pytest.raises(ValueError):
        UniformLatency(base=0.01, jitter=0.05)


def test_metrics_are_recorded():
    sim, transport = make_transport()
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: None)
    transport.send("a", "b", "t", "x")
    sim.run()
    assert sim.metrics.counter("net.sent").value == 1
    assert sim.metrics.counter("net.delivered").value == 1
    assert sim.metrics.histogram("net.latency").count == 1


def test_transport_partition_and_heal_helpers():
    sim, transport = make_transport()
    received = []
    for peer in ("a", "b", "c"):
        transport.register(peer, lambda m: received.append(m))
    handle = transport.partition({"a", "b"})
    assert transport.send("a", "b", "t", "x")  # intra-group ok
    assert not transport.send("a", "c", "t", "x")  # cross-group cut
    transport.heal(handle)
    assert transport.send("a", "c", "t", "x")
    sim.run()
    assert len(received) == 2


def test_transport_partition_accepts_bare_peer_id():
    _, transport = make_transport()
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: None)
    transport.partition("a")  # string, not iterable-of-ids
    assert not transport.send("a", "b", "t", "x")


def test_transport_partition_multiple_groups():
    _, transport = make_transport()
    for peer in ("a", "b", "c", "d"):
        transport.register(peer, lambda m: None)
    transport.partition({"a", "b"}, {"c"})
    assert transport.send("a", "b", "t", "x")
    assert not transport.send("b", "c", "t", "x")
    # Unlisted peers form the implicit remainder group.
    assert not transport.send("d", "a", "t", "x")


def test_transport_partition_needs_a_group():
    _, transport = make_transport()
    with pytest.raises(ValueError):
        transport.partition()


def test_transport_heal_without_handle_restores_pristine_network():
    _, transport = make_transport()
    for peer in ("a", "b", "c"):
        transport.register(peer, lambda m: None)
    transport.partition("a")
    transport.partition("b")
    transport.set_link("a", "b", loss=0.5)
    transport.heal()
    assert transport.topology.link_profile("a", "b") is None
    assert transport.send("a", "b", "t", "x")  # partitions gone, loss cleared
    assert transport.send("b", "c", "t", "x")


def test_transport_set_link_loss_and_latency():
    sim, transport = make_transport()
    arrivals = []
    transport.register("a", lambda m: None)
    transport.register("b", lambda m: arrivals.append(sim.now))
    transport.set_link("a", "b", loss=0.9)
    sent = sum(1 for _ in range(100) if transport.send("a", "b", "t", "x"))
    assert sent < 50  # heavy per-link loss drops most sends

    transport.set_link("a", "b", loss=0.0, extra_latency=1.0)
    sim.run()
    start = sim.now
    assert transport.send("a", "b", "t", "x")
    sim.run()
    assert arrivals[-1] - start >= 1.0  # override adds onto the model

    transport.set_link("a", "b", loss=0.0, extra_latency=0.0)
    assert transport.topology.link_profile("a", "b") is None  # all-zero removed


def test_transport_set_link_is_symmetric_and_groupwise():
    _, transport = make_transport()
    for peer in ("a", "b", "c"):
        transport.register(peer, lambda m: None)
    transport.set_link({"a"}, {"b", "c"}, loss=0.25)
    topology = transport.topology
    assert topology.link_profile("a", "b").loss == 0.25
    assert topology.link_profile("b", "a").loss == 0.25  # symmetric key
    assert topology.link_profile("a", "c").loss == 0.25
    assert topology.link_profile("b", "c") is None  # untouched pair


def test_deterministic_delivery_times():
    def run():
        sim, transport = make_transport(seed=42)
        arrivals = []
        transport.register("a", lambda m: None)
        transport.register("b", lambda m: arrivals.append(sim.now))
        for _ in range(10):
            transport.send("a", "b", "t", "x")
        sim.run()
        return arrivals

    assert run() == run()
