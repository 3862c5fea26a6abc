"""Deep-gap catch-up: a node down longer than gossip's IHAVE history can
advertise must recover via the direct ``chain:blocks`` RPC sync.

These pin the failure the scenario campaign's short churn windows never
hit — at ``block_time=0.25`` an 8-second outage produces far more message
ids than the lazy-gossip advertisement window carries, so IHAVE/IWANT
repair alone leaves the restarted node orphaned forever.
"""

import pytest

from repro.hierarchy import HierarchicalSystem, SubnetConfig, audit_system


def _deep_outage(engine: str, seed: int = 42) -> None:
    system = HierarchicalSystem(seed=seed).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="deep", validators=4, engine=engine, block_time=0.25)
    )
    system.run_for(5.0)
    nodes = system.nodes(sub)
    straggler = nodes[2]
    straggler.stop()
    system.run_for(8.0)  # ~32 blocks of proposals/votes — past the IHAVE window
    straggler.restart()
    system.run_for(8.0)
    heads = [n.head().height for n in nodes]
    assert max(heads) - min(heads) <= 1, f"straggler after restart: {heads}"
    assert system.sim.metrics.counter(f"chain.{sub}.sync_blocks").value > 0
    assert audit_system(system).ok


@pytest.mark.parametrize("engine", ["tendermint", "poa", "pos", "mir", "pow"])
def test_deep_outage_restart_catches_up(engine):
    _deep_outage(engine)


def test_serve_block_range_refuses_while_stopped():
    """Down (or still-syncing) nodes abstain from serving sync requests."""
    system = HierarchicalSystem(seed=7).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="serve", validators=3, engine="poa", block_time=0.25)
    )
    system.run_for(3.0)
    server, client = system.nodes(sub)[:2]
    server.stop()
    results = []
    system.stack.gossip.rpc.call(
        client.node_id,
        server.node_id,
        "chain:blocks",
        (1, 3),
        lambda r, e: results.append((r, e)),
    )
    system.run_for(1.0)
    assert len(results) == 1 and results[0][0] is None
    assert results[0][1] is not None


def test_serve_block_range_returns_ascending_canonical_blocks():
    system = HierarchicalSystem(seed=9).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="range", validators=3, engine="poa", block_time=0.25)
    )
    system.run_for(4.0)
    server, client = system.nodes(sub)[:2]
    results = []
    system.stack.gossip.rpc.call(
        client.node_id,
        server.node_id,
        "chain:blocks",
        (2, 5),
        lambda r, e: results.append((r, e)),
    )
    system.run_for(1.0)
    blocks, error = results[0]
    assert error is None
    assert [b.height for b in blocks] == [2, 3, 4, 5]
    # Each block links to its predecessor — a chain segment, not a sample.
    for parent, child in zip(blocks, blocks[1:]):
        assert child.header.parent == parent.cid


def test_sync_respects_partitions():
    """A partitioned straggler cannot sync through the cut; it catches up
    only after healing."""
    system = HierarchicalSystem(seed=11).start()
    sub = system.spawn_subnet(
        SubnetConfig(name="cutsync", validators=4, engine="tendermint", block_time=0.25)
    )
    system.run_for(3.0)
    transport = system.stack.transport
    straggler = system.nodes(sub)[2]
    straggler.stop()
    system.run_for(8.0)
    handle = transport.partition(straggler.node_id)
    straggler.restart()
    system.run_for(5.0)
    majority = system.node(sub).head().height
    assert straggler.head().height < majority  # the cut blocked catch-up
    transport.heal(handle)
    system.run_for(8.0)
    heads = [n.head().height for n in system.nodes(sub)]
    assert max(heads) - min(heads) <= 1, f"no catch-up after heal: {heads}"
