"""Unit tests for the checkpoint light client (§II)."""

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import KeyPair
from repro.crypto.signature import sign
from repro.crypto.threshold import ThresholdScheme
from repro.hierarchy.checkpoint import (
    Checkpoint,
    CrossMsgMeta,
    SignedCheckpoint,
    ZERO_CHECKPOINT,
)
from repro.hierarchy.crossmsg import CrossMsg
from repro.hierarchy.light_client import (
    CheckpointLightClient,
    VerificationError,
    follow_parent_chain,
)
from repro.hierarchy.subnet_actor import SignaturePolicy, register_threshold_scheme
from repro.hierarchy.subnet_id import ROOTNET, SubnetID

SUB = SubnetID("/root/watched")
VALIDATORS = [KeyPair(f"lc-val-{i}") for i in range(3)]


def make_checkpoint(window=0, prev=ZERO_CHECKPOINT, metas=(), tag="x"):
    return Checkpoint(
        source=SUB, proof=cid_of(("proof", tag, window)), prev=prev,
        cross_meta=tuple(metas), window=window, epoch=(window + 1) * 10,
    )


def signed_by(checkpoint, keypairs):
    return SignedCheckpoint(
        checkpoint=checkpoint,
        signatures=tuple(sign(k, checkpoint.cid.hex()) for k in keypairs),
    )


def make_client(threshold=2):
    return CheckpointLightClient(
        SUB,
        SignaturePolicy(kind="multisig", threshold=threshold),
        [k.address for k in VALIDATORS],
    )


def test_observe_builds_verified_chain():
    client = make_client()
    first = make_checkpoint(window=0)
    second = make_checkpoint(window=1, prev=first.cid)
    client.observe(signed_by(first, VALIDATORS[:2]))
    client.observe(signed_by(second, VALIDATORS))
    assert len(client.chain) == 2
    assert client.latest_proof == second.proof
    assert client.trust_weight == 3


def test_rejects_wrong_source():
    client = make_client()
    wrong = Checkpoint(source=ROOTNET.child("other"), proof=cid_of("p"),
                       prev=ZERO_CHECKPOINT, window=0, epoch=10)
    with pytest.raises(VerificationError, match="tracking"):
        client.observe(SignedCheckpoint(wrong, tuple()))


def test_rejects_broken_linkage():
    client = make_client()
    client.observe(signed_by(make_checkpoint(window=0), VALIDATORS[:2]))
    orphan = make_checkpoint(window=1, prev=cid_of("not the head"))
    with pytest.raises(VerificationError, match="chain"):
        client.observe(signed_by(orphan, VALIDATORS[:2]))


def test_rejects_below_policy_threshold():
    client = make_client(threshold=3)
    with pytest.raises(VerificationError, match="signature policy"):
        client.observe(signed_by(make_checkpoint(), VALIDATORS[:2]))


def test_rejects_outsider_signatures():
    client = make_client(threshold=2)
    outsiders = [KeyPair(f"lc-outsider-{i}") for i in range(2)]
    with pytest.raises(VerificationError):
        client.observe(signed_by(make_checkpoint(), outsiders))


def test_rejects_stale_window():
    client = make_client()
    first = make_checkpoint(window=2)
    client.observe(signed_by(first, VALIDATORS[:2]))
    stale = make_checkpoint(window=1, prev=first.cid)
    with pytest.raises(VerificationError, match="window"):
        client.observe(signed_by(stale, VALIDATORS[:2]))


def test_rejects_an_epoch_that_went_backwards():
    """The ``break_epoch`` forgery: a genuine prev-link and quorum
    signatures over a checkpoint whose epoch went back to 0."""
    client = make_client()
    first = make_checkpoint(window=0)  # epoch 10
    second = make_checkpoint(window=1, prev=first.cid)  # epoch 20
    client.observe(signed_by(first, VALIDATORS[:2]))
    client.observe(signed_by(second, VALIDATORS[:2]))
    rewound = Checkpoint(
        source=SUB, proof=cid_of("rewound"), prev=second.cid, window=2, epoch=0
    )
    with pytest.raises(VerificationError, match="epoch 0 not greater than previous epoch 20"):
        client.observe(signed_by(rewound, VALIDATORS[:2]))
    assert client.head.checkpoint == second


def test_observe_is_idempotent_for_head():
    client = make_client()
    signed = signed_by(make_checkpoint(), VALIDATORS[:2])
    client.observe(signed)
    client.observe(signed)
    assert len(client.chain) == 1


def test_verify_cross_batch():
    client = make_client()
    messages = (
        CrossMsg(from_subnet=SUB, from_addr=VALIDATORS[0].address,
                 to_subnet=ROOTNET, to_addr=VALIDATORS[1].address, value=5),
    )
    meta = CrossMsgMeta(from_subnet=SUB, to_subnet=ROOTNET, nonce=0,
                        msgs_cid=cid_of(messages), count=1, value=5)
    client.observe(signed_by(make_checkpoint(metas=[meta]), VALIDATORS[:2]))
    assert client.verify_cross_batch(messages)
    forged = (
        CrossMsg(from_subnet=SUB, from_addr=VALIDATORS[0].address,
                 to_subnet=ROOTNET, to_addr=VALIDATORS[1].address, value=500),
    )
    assert not client.verify_cross_batch(forged)


def test_threshold_policy_verification():
    scheme = ThresholdScheme(f"tss:{SUB.path}", threshold=2, participants=3, seed=5)
    register_threshold_scheme(scheme)
    client = CheckpointLightClient(
        SUB, SignaturePolicy(kind="threshold", threshold=2),
        [k.address for k in VALIDATORS],
    )
    checkpoint = make_checkpoint()
    partials = [
        ThresholdScheme.partial_sign(scheme.share_for(i), checkpoint.cid.hex())
        for i in (1, 2)
    ]
    combined = scheme.combine(partials, checkpoint.cid.hex())
    verified = client.observe(SignedCheckpoint(checkpoint, combined))
    assert verified.signers == (1, 2)
    # Plain multisig bundles are rejected under a threshold policy.
    bad = make_checkpoint(window=1, prev=checkpoint.cid)
    with pytest.raises(VerificationError):
        client.observe(signed_by(bad, VALIDATORS[:2]))


def test_child_checkpoint_aggregation_visible():
    client = make_client()
    grandchild_cid = cid_of("grandchild-ckpt")
    checkpoint = Checkpoint(
        source=SUB, proof=cid_of("p"), prev=ZERO_CHECKPOINT,
        children=((f"{SUB.path}/leaf", grandchild_cid),), window=0, epoch=10,
    )
    client.observe(signed_by(checkpoint, VALIDATORS[:2]))
    assert client.child_checkpoint_cids() == {f"{SUB.path}/leaf": grandchild_cid}


def test_follow_parent_chain_end_to_end():
    """The light client reconstructs the checkpoint chain from a live run."""
    from repro.hierarchy import HierarchicalSystem, SubnetConfig

    system = HierarchicalSystem(
        seed=95, root_validators=3, root_block_time=0.5, checkpoint_period=4,
    ).start()
    subnet = system.spawn_subnet(
        SubnetConfig(name="watched2", validators=3, block_time=0.25,
                     checkpoint_period=4, policy=SignaturePolicy("multisig", 2))
    )
    system.run_for(15.0)
    client = follow_parent_chain(
        system.node(ROOTNET),
        system.sa_address(subnet),
        subnet,
        SignaturePolicy("multisig", 2),
        [w.address for w in system.validator_wallets(subnet)],
    )
    assert len(client.chain) >= 2
    assert client.trust_weight >= 2
    # The light-client head matches the SCA's recorded last checkpoint.
    record = system.child_record(ROOTNET, subnet)
    assert client.head.checkpoint.cid.hex() == record["last_ckpt_cid"]


def test_follow_parent_chain_survives_the_parent_pruning_its_blocks():
    """The client is read from what the SA holds, not from block bodies: a
    parent that has dropped the blocks carrying the submissions yields the
    same verified chain as scanning every ``submit_checkpoint`` transaction
    as it commits.  Mutant: a reader that walks the parent's blocks (they
    end at the parent's floor, so it silently returns a shorter chain)."""
    from repro.hierarchy import HierarchicalSystem, SubnetConfig

    system = HierarchicalSystem(
        seed=95, root_validators=3, root_block_time=0.5, checkpoint_period=4,
    ).start()
    root = system.node(ROOTNET)
    root.store.prune_depth = 8
    subnet = system.spawn_subnet(
        SubnetConfig(name="watched3", validators=3, block_time=0.25,
                     checkpoint_period=4, policy=SignaturePolicy("multisig", 2))
    )
    sa_addr = system.sa_address(subnet)
    policy = SignaturePolicy("multisig", 2)
    validators = [w.address for w in system.validator_wallets(subnet)]
    by_scan = CheckpointLightClient(subnet, policy, validators)

    def scan(block):  # what the body-walking reader saw, taken at commit
        for signed in block.messages:
            message = signed.message
            if message.to_addr == sa_addr and message.method == "submit_checkpoint":
                try:
                    by_scan.observe(message.params["signed"])
                except VerificationError:
                    pass

    root.on_commit(scan)
    system.run_for(15.0)
    assert root.store.floor > 1 and root.store.block_at_height(root.store.floor - 1) is None
    client = follow_parent_chain(root, sa_addr, subnet, policy, validators)
    assert len(client.chain) >= 2
    assert [v.checkpoint.cid for v in client.chain] == [
        v.checkpoint.cid for v in by_scan.chain
    ]
    assert [v.signers for v in client.chain] == [v.signers for v in by_scan.chain]
