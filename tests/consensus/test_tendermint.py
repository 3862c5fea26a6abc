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


def _spy_certificates(cluster):
    """Record every ``tm:commit`` a validator publishes, as
    ``(height, sender, block)``."""
    published = []
    for node in cluster.nodes:
        def spy(kind, payload, _node=node, _publish=node.broadcast):
            if kind == "tm:commit":
                published.append((payload["block"].height, _node.node_id, payload["block"]))
            _publish(kind, payload)
        node.broadcast = spy
    return published


def test_a_height_publishes_one_certificate_from_the_committing_proposer(make_cluster):
    """Happy path, seven validators: each committed height floods exactly
    one certificate, sent by the proposer of the round that committed it
    (every block here commits in the round it was proposed in)."""
    cluster = make_cluster(7, engine="tendermint", block_time=0.5, seed=5)
    published = _spy_certificates(cluster)
    cluster.start().run(10.0)

    chain = [b for b in canonical_chain(cluster.nodes[0].store) if b.height > 0]
    assert len(chain) >= 15
    decided = min(cluster.heights())
    by_height = {}
    for height, sender, block in published:
        by_height.setdefault(height, []).append((sender, block.cid))
    engine = cluster.nodes[0].engine
    for block in chain:
        if block.height > decided:
            continue
        proposer = engine.proposer_for(block.height, block.header.consensus_data["round"])
        assert by_height[block.height] == [(proposer.node_id, block.cid)]


def test_a_straggler_catches_up_when_the_certificate_publisher_is_cut_off(make_cluster):
    """The committing proposer is cut off the instant it commits, so its
    height's certificate never leaves it, while a straggler is partitioned
    away.  Once healed, the straggler reaches the head through the next
    height's certificate (its block lands as an orphan) and range sync of
    the gap — within ``CATCH_UP_HEIGHTS`` heights of the cluster's head at
    the heal."""
    CATCH_UP_HEIGHTS = 4
    cluster = make_cluster(7, engine="tendermint", block_time=0.5, seed=5)
    transport = cluster.stack.transport
    straggler = cluster.nodes[6]
    cut = []
    for node in cluster.nodes[:6]:
        def cut_on_certificate(kind, payload, _node=node, _publish=node.broadcast):
            if kind == "tm:commit" and not cut and transport.topology.partitions_active:
                cut.append((_node, payload["block"].height))
                transport.partition(_node.node_id)
                return  # the certificate never leaves the publisher
            _publish(kind, payload)
        node.broadcast = cut_on_certificate
    cluster.start().run(3.0)
    isolated = transport.partition(straggler.node_id)
    cluster.run(3.0)

    (publisher, lost_height), = cut
    assert straggler.head().height < lost_height
    live = [node for node in cluster.nodes if node not in (straggler, publisher)]
    assert min(node.head().height for node in live) > lost_height
    transport.heal(isolated)
    head_at_heal = max(node.head().height for node in live)
    for _ in range(40):
        cluster.run(0.25)
        head = max(node.head().height for node in live)
        if straggler.head().height >= head - 1:
            break
    assert straggler.head().height >= head - 1
    assert head - head_at_heal <= CATCH_UP_HEIGHTS
    assert straggler.store.block_at_height(lost_height).cid == (
        live[0].store.block_at_height(lost_height).cid
    )
