"""Tests for the Mir-style multi-leader engine."""

from tests.chain.canonical import canonical_chain


def test_mir_multiplies_block_rate(make_cluster):
    single = make_cluster(4, engine="poa", block_time=1.0, seed=3).start()
    single.run(20.5)
    multi = make_cluster(
        4, engine="mir", block_time=1.0, seed=3, consensus_overrides={"mir_leaders": 4}
    ).start()
    multi.run(20.5)
    # Mir with L=4 leaders should produce ~4x the blocks of single-leader.
    ratio = multi.heights()[0] / single.heights()[0]
    assert ratio >= 3.0


def test_mir_converges(make_cluster):
    cluster = make_cluster(4, engine="mir", seed=5).start()
    cluster.run(10.0)
    assert cluster.converged_prefix_height() >= min(cluster.heights()) - 2


def test_mir_leaders_interleave(make_cluster):
    cluster = make_cluster(4, engine="mir", seed=7).start()
    cluster.run(10.0)
    chain = canonical_chain(cluster.nodes[0].store)
    miners = {b.header.miner for b in chain[1:]}
    assert len(miners) == 4


def test_mir_bucket_partitioning_no_duplicates(make_cluster):
    cluster = make_cluster(
        4, engine="mir", seed=9, consensus_overrides={"mir_leaders": 4}
    ).start()
    cluster.run(0.5)
    for nonce in range(10):
        for user in range(4):
            cluster.submit_payment(user, nonce, value=1)
    cluster.run(15.0)
    chain = canonical_chain(cluster.nodes[0].store)
    seen = set()
    for block in chain:
        for signed in block.messages:
            assert signed.cid not in seen, "message included twice"
            seen.add(signed.cid)
    assert len(seen) == 40


def test_mir_buckets_are_disjoint_per_epoch(make_cluster):
    cluster = make_cluster(4, engine="mir", seed=11).start()
    engine = cluster.nodes[0].engine
    senders = [f"f1sender{i}" for i in range(50)]
    for epoch in (0, 1, 5):
        buckets = {s: engine.bucket_of(s, epoch) for s in senders}
        assert set(buckets.values()) <= set(range(engine.leaders))
    # Rotation: bucket assignment changes between epochs.
    assert any(
        engine.bucket_of(s, 0) != engine.bucket_of(s, 1) for s in senders
    )


def test_mir_transactions_execute(make_cluster):
    cluster = make_cluster(4, engine="mir", seed=13).start()
    cluster.run(0.5)
    for nonce in range(4):
        cluster.submit_payment(0, nonce, value=5)
    cluster.run(8.0)
    bob = cluster.user_keys[1]
    for node in cluster.nodes:
        assert node.vm.balance_of(bob.address) == 1_000_020


def test_mir_single_leader_degenerates_to_round_robin(make_cluster):
    cluster = make_cluster(
        3, engine="mir", block_time=1.0, seed=15, consensus_overrides={"mir_leaders": 1}
    ).start()
    cluster.run(10.5)
    assert 8 <= cluster.heights()[0] <= 11


def test_mir_leaders_capped_at_validator_count(make_cluster):
    cluster = make_cluster(
        2, engine="mir", seed=17, consensus_overrides={"mir_leaders": 8}
    ).start()
    assert cluster.nodes[0].engine.leaders == 2
