"""Tests for the single-chain and sharded baselines."""

import pytest

from repro.baselines import (
    ShardedBaseline,
    SingleChainBaseline,
    shard_compromise_probability,
)
from repro.workloads import PaymentWorkload, sender_fund_spec


def test_single_chain_produces_blocks_and_commits_txs():
    funds = sender_fund_spec(4, scope="sc")
    baseline = SingleChainBaseline(seed=3, validators=3, block_time=0.5,
                                   wallet_funds=funds).start()
    senders = [baseline.wallets[name] for name in funds]
    workload = PaymentWorkload(baseline.sim, baseline.nodes, senders, rate=20.0).start()
    baseline.run_for(20.0)
    workload.stop()
    assert baseline.committed_tx_count() > 100
    assert baseline.throughput() > 5.0
    assert workload.stats.committed > 100
    assert workload.stats.latency_percentile(50) < 5.0


def test_single_chain_throughput_caps_at_block_capacity():
    funds = sender_fund_spec(4, scope="cap")
    baseline = SingleChainBaseline(
        seed=5, validators=3, block_time=0.5, max_block_messages=5,
        wallet_funds=funds,
    ).start()
    senders = [baseline.wallets[name] for name in funds]
    PaymentWorkload(baseline.sim, baseline.nodes, senders, rate=100.0).start()
    baseline.run_for(20.0)
    # Capacity: 5 msgs / 0.5 s = 10 tx/s.
    assert baseline.throughput() <= 10.5


def test_sharded_baseline_runs_all_shards():
    funds = sender_fund_spec(4, scope="sh")
    baseline = ShardedBaseline(
        seed=7, shards=3, validators_per_shard=3, block_time=0.5,
        reshuffle_interval=1000.0, wallet_funds=funds,
    ).start()
    baseline.run_for(10.0)
    for shard in range(3):
        assert baseline.node(shard).head().height >= 8


def test_sharded_reshuffle_pauses_and_resumes():
    funds = sender_fund_spec(2, scope="shr")
    baseline = ShardedBaseline(
        seed=9, shards=2, validators_per_shard=3, block_time=0.5,
        reshuffle_interval=10.0, reshuffle_downtime=2.0, wallet_funds=funds,
    ).start()
    baseline.run_for(35.0)
    assert baseline.reshuffles == 3
    assert baseline.downtime_total == pytest.approx(3 * 2.0 * 2)
    # Chains survive reshuffles and keep advancing.
    for shard in range(2):
        assert baseline.node(shard).head().height > 20


def test_sharded_validator_sets_change_on_reshuffle():
    baseline = ShardedBaseline(
        seed=11, shards=2, validators_per_shard=4,
        reshuffle_interval=5.0, reshuffle_downtime=0.5,
    ).start()
    before = [n.keypair.address for n in baseline.shard_nodes[0]]
    baseline.run_for(6.0)
    after = [n.keypair.address for n in baseline.shard_nodes[0]]
    assert set(before) != set(after)


def test_shard_assignment_is_seeded_and_partitions_the_pool():
    def assignment(seed):
        baseline = ShardedBaseline(seed=seed, shards=4, validators_per_shard=2,
                                   reshuffle_interval=1000.0)
        return [[n.keypair.address for n in nodes] for nodes in baseline.shard_nodes]

    shards = assignment(13)
    assert shards == assignment(13)
    assert [len(nodes) for nodes in shards] == [2] * 4
    members = [address for nodes in shards for address in nodes]
    assert len(set(members)) == len(members) == 8  # every validator in one shard


def test_compromise_probability_monotone_in_adversary():
    p_small = shard_compromise_probability(64, 8, 0.10, trials=4000)
    p_large = shard_compromise_probability(64, 8, 0.30, trials=4000)
    assert p_small < p_large


def test_compromise_probability_grows_with_shard_count():
    p_few = shard_compromise_probability(64, 2, 0.25, trials=4000)
    p_many = shard_compromise_probability(64, 16, 0.25, trials=4000)
    assert p_many > p_few


def test_compromise_probability_bounds():
    assert shard_compromise_probability(16, 4, 0.0, trials=500) == 0.0
    assert shard_compromise_probability(16, 4, 0.9, trials=500) > 0.99
