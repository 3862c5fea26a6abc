"""The block-intake contract, once for all five engines.

The node runtime owns intake — validate, park orphans, range-sync the gap
from the sender, apply, cascade — and an engine only decides whether a
delivered block is eligible.  These tests hand-deliver the messages a
validator published to a straggler that was down while they were gossiped,
so nothing but the engine's ``handle`` and the runtime's intake runs.
"""

import pytest

from tests.chain.canonical import canonical_chain

ENGINES = ["poa", "pos", "mir", "pow", "tendermint"]
#: The message kind each engine carries a decided block in.
BLOCK_KINDS = ("block", "tm:commit")


def _block_of(payload):
    return payload["block"] if isinstance(payload, dict) else payload


def _straggler_and_published(make_cluster, engine, run_for):
    """Run a 4-validator cluster with n3 down from the start.

    Returns the cluster, the straggler, and every block-carrying message
    the live validators published, as ``{height: (kind, payload, sender)}``
    restricted to n0's canonical chain.
    """
    cluster = make_cluster(4, engine=engine, block_time=0.5, seed=31)
    straggler = cluster.nodes[3]
    published = []
    for node in cluster.nodes[:3]:
        def spy(kind, payload, _node=node, _publish=node.broadcast):
            if kind in BLOCK_KINDS:
                published.append((kind, payload, _node.node_id))
            _publish(kind, payload)
        node.broadcast = spy
    cluster.start()
    straggler.stop()
    cluster.run(run_for)
    canonical = {b.cid for b in canonical_chain(cluster.nodes[0].store)}
    by_height = {}
    for kind, payload, sender in published:
        block = _block_of(payload)
        if block.cid in canonical:
            by_height.setdefault(block.height, (kind, payload, sender))
    return cluster, straggler, by_height


def _range_requests(cluster):
    """Record every ``chain:blocks`` RPC issued from now on."""
    requests = []
    rpc = cluster.gossip.rpc
    original = rpc.call

    def call(caller, peer, method, params, callback):
        if method == "chain:blocks":
            requests.append((caller, peer, params))
        return original(caller, peer, method, params, callback)

    rpc.call = call
    return requests


@pytest.mark.parametrize("engine", ENGINES)
def test_gap_is_fetched_once_from_the_sender_and_the_cascade_lands(
    make_cluster, engine
):
    # 10 s keeps Mir (6 blocks a second here) inside the 64-block horizon:
    # past it the gap is a snapshot's to close, not one range request's.
    cluster, straggler, by_height = _straggler_and_published(
        make_cluster, engine, run_for=10.0
    )
    assert not straggler.engine.running and straggler.head().height == 0
    height = max(by_height)
    assert 4 <= height < straggler.store.prune_depth
    kind, payload, sender = by_height[height]
    block = _block_of(payload)
    requests = _range_requests(cluster)
    # Every Tendermint validator re-broadcasts the certificate of a block
    # it commits, so one future block arrives once per peer.
    for _ in range(3):
        straggler.engine.handle(kind, payload, sender)

    parked = [b for waiting in straggler._orphans.values() for b in waiting.values()]
    assert [b.cid for b in parked] == [block.cid]
    assert requests == [(straggler.node_id, sender, (1, height - 1))]

    cluster.run(1.0)
    assert requests == [(straggler.node_id, sender, (1, height - 1))]
    assert straggler.store.has(block.cid)
    assert straggler.head().height >= height
    assert not straggler._orphans
    assert cluster.sim.metrics.counter("chain./root.sync_blocks").value == height - 1


@pytest.mark.parametrize("engine", ENGINES)
def test_stopped_engine_still_applies_self_certifying_blocks(make_cluster, engine):
    """A restarted node listens passively — engine stopped — until its
    head is fresh; deliveries dropped meanwhile would be gossip-seen yet
    never applied."""
    cluster, straggler, by_height = _straggler_and_published(
        make_cluster, engine, run_for=6.0
    )
    requests = _range_requests(cluster)
    for height in (1, 2):
        kind, payload, sender = by_height[height]
        straggler.engine.handle(kind, payload, sender)
        assert straggler.head().cid == _block_of(payload).cid
    assert not straggler.engine.running
    assert requests == []


def _serve(server, blocks):
    """Make *server* answer every ``chain:blocks`` request with *blocks*;
    returns the ``(start, end)`` of each request it answers."""
    answered = []

    def blocks_in_range(start, end):
        answered.append((start, end))
        return list(blocks)

    server.blocks_in_range = blocks_in_range
    return answered


@pytest.mark.parametrize(
    "engine, delivery",
    [
        pytest.param(engine, delivery, id=engine if delivery == "gossip" else f"{engine}-range")
        for delivery in ("gossip", "range")
        for engine in ("poa", "pos", "mir")
    ],
)
def test_wrong_leader_block_is_rejected_and_not_stored(make_cluster, engine, delivery):
    cluster = make_cluster(4, engine=engine, block_time=0.5, seed=33).start()
    cluster.run(2.2)
    forger, victim = cluster.nodes[1], cluster.nodes[0]
    slot = next(
        s for s in range(100, 200)
        if victim.engine.leader_for_slot(s).node_id != forger.node_id
    )
    head = victim.head()
    assert forger.store.has(head.cid)
    forged = forger.assemble_block(
        height=head.height + 1,
        parent_cid=head.cid,
        consensus_data=forger.engine._consensus_data(slot),
    )
    assert not victim.engine.eligible(forged)
    if delivery == "gossip":
        victim.engine.handle("block", forged, forger.node_id)
    else:
        answered = _serve(forger, [forged])
        assert victim.request_block_range(forger.node_id, forged.height, forged.height)
        cluster.run(0.3)
        assert answered == [(forged.height, forged.height)]
    assert not victim.store.has(forged.cid)


def _ineligible_data(engine, forger, height):
    """Consensus data under which *forger*'s block at *height* is not its
    to make: no PoW tag, or a round another validator proposes."""
    if engine.NAME == "pow":
        return {"ticket": 7}
    round_ = next(
        r for r in range(8) if engine.proposer_for(height, r).node_id != forger.node_id
    )
    return {"engine": engine.NAME, "round": round_}


@pytest.mark.parametrize("engine", ["pow", "tendermint"])
def test_a_range_reply_with_one_ineligible_block_is_refused_whole(make_cluster, engine):
    """The straggler asks for the chain it missed; the server appends one
    block its engine would refuse by gossip.  Nothing of the reply is
    applied or parked — the eligible blocks before it included.  (The slot
    engines' case is the wrong-leader test's ``-range`` input.)"""
    cluster, straggler, _ = _straggler_and_published(make_cluster, engine, run_for=4.0)
    forger = cluster.nodes[1]
    chain = canonical_chain(forger.store)[1:]
    head = forger.head()
    forged = forger.assemble_block(
        height=head.height + 1,
        parent_cid=head.cid,
        consensus_data=_ineligible_data(straggler.engine, forger, head.height + 1),
    )
    assert all(map(straggler.engine.eligible, chain))
    assert not straggler.engine.eligible(forged)
    answered = _serve(forger, chain + [forged])
    assert straggler.request_block_range(forger.node_id, 1, forged.height)
    cluster.run(0.3)
    assert answered == [(1, forged.height)]
    assert straggler.head().height == 0
    assert not straggler._orphans
    assert not straggler.store.has(forged.cid)

    _serve(forger, chain)  # the same reply without the forged block lands
    assert straggler.request_block_range(forger.node_id, 1, head.height)
    cluster.run(0.3)
    assert straggler.head().cid == head.cid


def test_an_engine_must_say_how_it_handles_and_what_is_eligible():
    """The two hooks every engine implements (and a slot engine's third):
    the base classes refuse rather than accept silently."""
    from repro.consensus.base import ConsensusEngine
    from repro.consensus.slots import SlotLeaderEngine

    # No simulator, node or validators: only the hooks are called.
    engine = object.__new__(type("Bare", (ConsensusEngine,), {}))
    slot_engine = object.__new__(type("BareSlots", (SlotLeaderEngine,), {}))
    for call in (
        lambda: engine.handle("block", None, "peer"),
        lambda: engine.eligible(None),
        lambda: slot_engine.leader_for_slot(0),
    ):
        with pytest.raises(NotImplementedError):
            call()
