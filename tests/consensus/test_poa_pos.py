"""Tests for the round-robin PoA and PoS lottery engines."""

import pytest

from repro.sim.tracing import TraceLog
from tests.chain.canonical import canonical_chain


def test_poa_produces_blocks(make_cluster):
    cluster = make_cluster(4, engine="poa", block_time=1.0).start()
    cluster.run(10.5)
    assert all(h >= 8 for h in cluster.heights())


def test_poa_all_nodes_converge(make_cluster):
    cluster = make_cluster(4, engine="poa").start()
    cluster.run(10.0)
    assert cluster.converged_prefix_height() >= 8
    # Heads are within one propagation delay of each other.
    assert max(cluster.heights()) - min(cluster.heights()) <= 1


def test_poa_leaders_rotate(make_cluster):
    cluster = make_cluster(3, engine="poa").start()
    cluster.run(9.5)
    chain = canonical_chain(cluster.nodes[0].store)
    miners = [block.header.miner for block in chain[1:]]
    assert len(set(miners)) == 3  # every validator led at least once


def test_poa_transactions_execute(make_cluster):
    cluster = make_cluster(4, engine="poa").start()
    cluster.run(1.0)
    alice = cluster.user_keys[0]
    bob = cluster.user_keys[1]
    for nonce in range(5):
        assert cluster.submit_payment(0, nonce, value=100)
    cluster.run(6.0)
    for node in cluster.nodes:
        assert node.vm.balance_of(alice.address) == 1_000_000 - 500
        assert node.vm.balance_of(bob.address) == 1_000_000 + 500
        assert node.vm.nonce_of(alice.address) == 5


def test_poa_byzantine_leader_skips_slot(make_cluster):
    cluster = make_cluster(
        4, engine="poa", byzantine={"n0": {"withhold_block"}}
    ).start()
    cluster.run(12.5)
    # Chain still advances, just slower: 1/4 of slots are skipped.
    heights = cluster.heights()
    assert all(7 <= h <= 10 for h in heights)
    chain = canonical_chain(cluster.nodes[1].store)
    miners = {block.header.miner for block in chain[1:]}
    assert cluster.keys[0].address not in miners


def test_poa_single_validator(make_cluster):
    cluster = make_cluster(1, engine="poa").start()
    cluster.run(5.5)
    assert cluster.heights()[0] >= 5


def test_poa_deterministic(make_cluster):
    def run():
        cluster = make_cluster(4, engine="poa", seed=11)
        log = cluster.sim.attach(TraceLog(cluster.sim))
        cluster.start().submit_payment(0, 0)
        cluster.run(8.0)
        return log.digest(), len(log)

    first = run()
    assert first == run() and first[1] > 0


def test_pos_produces_blocks_and_converges(make_cluster):
    cluster = make_cluster(4, engine="pos").start()
    cluster.run(12.0)
    assert cluster.converged_prefix_height() >= 9


def test_pos_stake_weighting_biases_leadership(make_cluster):
    cluster = make_cluster(3, engine="pos", powers=[10, 1, 1], block_time=0.5).start()
    cluster.run(60.0)
    chain = canonical_chain(cluster.nodes[0].store)
    miners = [block.header.miner for block in chain[1:]]
    heavy = sum(1 for m in miners if m == cluster.keys[0].address)
    # The heavy validator (10/12 of stake) should lead the large majority.
    assert heavy / len(miners) > 0.6


def test_pos_transactions_execute(make_cluster):
    cluster = make_cluster(3, engine="pos").start()
    cluster.run(1.0)
    cluster.submit_payment(0, 0, value=42)
    cluster.run(8.0)
    bob = cluster.user_keys[1]
    for node in cluster.nodes:
        assert node.vm.balance_of(bob.address) == 1_000_042


def test_pos_deterministic(make_cluster):
    def run():
        cluster = make_cluster(3, engine="pos", seed=5).start()
        cluster.run(10.0)
        return [b.cid for b in canonical_chain(cluster.nodes[0].store)]

    assert run() == run()


def test_block_interval_matches_target(make_cluster):
    cluster = make_cluster(4, engine="poa", block_time=2.0).start()
    cluster.run(30.0)
    chain = canonical_chain(cluster.nodes[0].store)
    intervals = [
        b.header.timestamp - a.header.timestamp for a, b in zip(chain[1:], chain[2:])
    ]
    assert all(i == pytest.approx(2.0, abs=0.01) for i in intervals)
