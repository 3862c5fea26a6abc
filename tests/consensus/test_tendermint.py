"""Tests for the Tendermint BFT engine."""

import pytest

from repro.consensus.base import Validator, ValidatorSet
from repro.telemetry import RoundTracer

from tests.chain.canonical import canonical_chain


def test_tendermint_commits_blocks(make_cluster):
    cluster = make_cluster(4, engine="tendermint", block_time=1.0).start()
    cluster.run(15.0)
    assert all(h >= 5 for h in cluster.heights())


def test_tendermint_instant_finality_no_forks(make_cluster):
    cluster = make_cluster(4, engine="tendermint").start()
    cluster.run(15.0)
    for node in cluster.nodes:
        assert node.store.fork_count() == 0
    assert cluster.converged_prefix_height() >= min(cluster.heights()) - 1


def test_tendermint_transactions_execute(make_cluster):
    cluster = make_cluster(4, engine="tendermint").start()
    cluster.run(1.0)
    for nonce in range(3):
        cluster.submit_payment(0, nonce, value=7)
    cluster.run(15.0)
    bob = cluster.user_keys[1]
    for node in cluster.nodes:
        assert node.vm.balance_of(bob.address) == 1_000_021


def test_tendermint_tolerates_one_faulty_of_four(make_cluster):
    cluster = make_cluster(
        4, engine="tendermint",
        byzantine={"n0": {"withhold_block", "withhold_vote"}},
    ).start()
    cluster.run(30.0)
    # n = 4 tolerates f = 1: progress continues (round changes skip n0).
    honest_heights = cluster.heights()[1:]
    assert all(h >= 3 for h in honest_heights)


def test_tendermint_stalls_beyond_fault_threshold(make_cluster):
    cluster = make_cluster(
        4, engine="tendermint",
        byzantine={
            "n0": {"withhold_vote", "withhold_block"},
            "n1": {"withhold_vote", "withhold_block"},
        },
    ).start()
    cluster.run(30.0)
    # Two faulty of four exceeds f=1: no quorum, no commits.
    assert all(h == 0 for h in cluster.heights())


def test_tendermint_equivocation_detected(make_cluster):
    cluster = make_cluster(
        4, engine="tendermint",
        byzantine={"n3": {"equivocate_vote"}},
    ).start()
    cluster.run(20.0)
    # Progress continues and honest engines record evidence.
    assert all(h >= 3 for h in cluster.heights())
    evidence = [e for node in cluster.nodes[:3] for e in node.engine.equivocation_evidence]
    assert any(voter == "n3" for voter, _, _ in evidence)


def test_tendermint_rounds_advance_without_proposer(make_cluster):
    cluster = make_cluster(
        4, engine="tendermint", byzantine={"n0": {"withhold_block"}},
    )
    cluster.sim.attach(RoundTracer(cluster.sim))
    cluster.start().run(30.0)
    rounds = cluster.sim.metrics.histogram("consensus.round.*.per_height", "/root")
    # Some heights needed round > 0 (whenever n0 was the proposer).
    assert rounds.max() >= 2


def test_tendermint_survives_lossy_window_and_recovers(make_cluster):
    """Regression for the lossy-links liveness stall: a 50% loss window
    used to wedge the cluster *permanently* — timeouts phase-shifted the
    validators into disjoint round cadences, and a round-0 lock split
    could never resolve because reproposals of the locked block (carrying
    the original miner's address) failed the proposer-eligibility check.
    With f+1 round catch-up and validRound reproposal, every validator
    must commit fresh heights once the links heal."""
    cluster = make_cluster(4, engine="tendermint", block_time=0.5, seed=3).start()
    cluster.run(3.0)
    ids = [f"n{i}" for i in range(4)]
    lossy = cluster.stack.transport.set_link(ids, ids, loss=0.5)
    cluster.run(12.0)
    cluster.stack.transport.heal(lossy)
    wedged_at = max(cluster.heights())
    cluster.run(10.0)
    assert min(cluster.heights()) > wedged_at
    for node in cluster.nodes:
        assert node.store.fork_count() == 0


def test_tendermint_deterministic(make_cluster):
    def run():
        cluster = make_cluster(4, engine="tendermint", seed=41).start()
        cluster.run(12.0)
        return [b.cid for b in canonical_chain(cluster.nodes[0].store)]

    chain_a, chain_b = run(), run()
    assert chain_a == chain_b and len(chain_a) > 3


def test_validator_set_quorum_math():
    validators = ValidatorSet(
        Validator(node_id=f"n{i}", address=__import__("repro.crypto.keys", fromlist=["KeyPair"]).KeyPair(f"v{i}").address, power=1)
        for i in range(4)
    )
    assert validators.total_power == 4
    assert validators.quorum_power == 3


def test_validator_set_rejects_bad_input():
    from repro.crypto.keys import KeyPair

    with pytest.raises(ValueError):
        ValidatorSet([])
    with pytest.raises(ValueError):
        ValidatorSet(
            [
                Validator(node_id="a", address=KeyPair("a").address, power=1),
                Validator(node_id="a", address=KeyPair("a").address, power=1),
            ]
        )
    with pytest.raises(ValueError):
        ValidatorSet([Validator(node_id="a", address=KeyPair("a").address, power=0)])


def test_stale_commit_certificate_is_never_verified(make_cluster):
    cluster = make_cluster(4, engine="tendermint").start()
    engines = [node.engine for node in cluster.nodes]
    checked = []
    for engine in engines:
        verify = engine._verify_commit_cert

        def counted(block, votes, engine=engine, verify=verify):
            checked.append((block.height, engine.height))
            return verify(block, votes)

        engine._verify_commit_cert = counted
    cluster.run(10.0)
    assert checked, "certificates for the working height or ahead are verified"
    assert all(block_height >= height for block_height, height in checked)
    # A certificate below the working height is dropped unread, even one
    # whose votes would not verify.
    engine = engines[0]
    old = cluster.nodes[0].store.block_at_height(1)
    assert old is not None and engine.height > 1
    before = len(checked)
    engine.handle("tm:commit", {"block": old, "votes": ()}, "n1")
    assert len(checked) == before
