"""VM-level tests for SA signature policies and fraud-proof slashing."""

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import Address, KeyPair
from repro.crypto.signature import sign
from repro.crypto.threshold import ThresholdScheme, ThresholdSignature
from repro.hierarchy.checkpoint import Checkpoint, SignedCheckpoint, ZERO_CHECKPOINT
from repro.hierarchy.gateway import SCA_ADDRESS, STATUS_INACTIVE
from repro.hierarchy.light_client import CheckpointLightClient, VerificationError
from repro.hierarchy.subnet_actor import SignaturePolicy, register_threshold_scheme
from repro.hierarchy.subnet_id import SubnetID
from repro.sim.scheduler import Simulator
from repro.telemetry import CheckpointAuditor, InvariantMonitor
from repro.vm.exitcode import ExitCode
from repro.vm.runtime import actor_key
from repro.vm.vm import VM

from tests.hierarchy.conftest import call, fund, hierarchy_registry, sca_state
from tests.telemetry.feeds import commit, stub_node

SUB = SubnetID("/root/sub")


def make_parent(policy, n_miners=3):
    vm = VM(subnet_id="/root", registry=hierarchy_registry())
    vm.create_actor(
        SCA_ADDRESS, "sca",
        params={"subnet_path": "/root", "min_collateral": 100, "checkpoint_period": 10},
    )
    sa_addr = Address("f2sub")
    vm.create_actor(
        sa_addr, "subnet-actor",
        params={
            "subnet_path": "/root/sub", "consensus": "poa",
            "checkpoint_period": 10, "activation_collateral": 100,
            "policy": policy, "min_validators": 1,
        },
    )
    miners = [KeyPair(f"miner-{i}") for i in range(n_miners)]
    for miner in miners:
        fund(vm, miner.address, 1000)
        receipt = call(vm, miners[miners.index(miner)], sa_addr, "join", value=100)
        assert receipt.ok, receipt.error
    return vm, sa_addr, miners


def make_checkpoint(window=0, prev=ZERO_CHECKPOINT, tag="a"):
    return Checkpoint(
        source=SUB, proof=cid_of(("proof", tag, window)), prev=prev,
        window=window, epoch=(window + 1) * 10,
    )


def submit(vm, sa_addr, submitter, signed):
    return call(vm, submitter, sa_addr, "submit_checkpoint", params={"signed": signed})


def test_multisig_policy_accepts_quorum():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="multisig", threshold=2))
    checkpoint = make_checkpoint()
    signatures = tuple(sign(m, checkpoint.cid.hex()) for m in miners[:2])
    receipt = submit(vm, sa_addr, miners[0], SignedCheckpoint(checkpoint, signatures))
    assert receipt.ok, receipt.error
    assert sca_state(vm, "child//root/sub")["last_ckpt_cid"] == checkpoint.cid.hex()


def test_multisig_policy_rejects_below_threshold():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="multisig", threshold=3))
    checkpoint = make_checkpoint()
    signatures = tuple(sign(m, checkpoint.cid.hex()) for m in miners[:2])
    receipt = submit(vm, sa_addr, miners[0], SignedCheckpoint(checkpoint, signatures))
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN


def test_multisig_rejects_outsider_signatures():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="multisig", threshold=2))
    outsiders = [KeyPair(f"outsider-{i}") for i in range(2)]
    checkpoint = make_checkpoint()
    signatures = tuple(sign(o, checkpoint.cid.hex()) for o in outsiders)
    receipt = submit(vm, sa_addr, miners[0], SignedCheckpoint(checkpoint, signatures))
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN


def test_single_policy_accepts_any_validator():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    checkpoint = make_checkpoint()
    signed = SignedCheckpoint(checkpoint, (sign(miners[2], checkpoint.cid.hex()),))
    receipt = submit(vm, sa_addr, miners[0], signed)
    assert receipt.ok, receipt.error


def test_threshold_policy():
    scheme = ThresholdScheme("tss:/root/sub", threshold=2, participants=3, seed=7)
    register_threshold_scheme(scheme)
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="threshold", threshold=2))
    checkpoint = make_checkpoint()
    partials = [
        ThresholdScheme.partial_sign(scheme.share_for(i), checkpoint.cid.hex())
        for i in (1, 3)
    ]
    combined = scheme.combine(partials, checkpoint.cid.hex())
    receipt = submit(vm, sa_addr, miners[0], SignedCheckpoint(checkpoint, combined))
    assert receipt.ok, receipt.error


def test_threshold_policy_rejects_foreign_group():
    scheme = ThresholdScheme("tss:/root/sub", threshold=2, participants=3, seed=7)
    wrong = ThresholdScheme("tss:/root/evil", threshold=2, participants=3, seed=9)
    register_threshold_scheme(scheme)
    register_threshold_scheme(wrong)
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="threshold", threshold=2))
    checkpoint = make_checkpoint()
    partials = [
        ThresholdScheme.partial_sign(wrong.share_for(i), checkpoint.cid.hex())
        for i in (1, 2)
    ]
    combined = wrong.combine(partials, checkpoint.cid.hex())
    receipt = submit(vm, sa_addr, miners[0], SignedCheckpoint(checkpoint, combined))
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN


def test_window_replay_rejected():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    checkpoint = make_checkpoint(window=0)
    signed = SignedCheckpoint(checkpoint, (sign(miners[0], checkpoint.cid.hex()),))
    assert submit(vm, sa_addr, miners[0], signed).ok
    receipt = submit(vm, sa_addr, miners[1], signed)
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_policy_validation():
    with pytest.raises(ValueError):
        SignaturePolicy(kind="zk")
    with pytest.raises(ValueError):
        SignaturePolicy(kind="multisig", threshold=0)


def test_fraud_proof_slashes_collateral():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    prev = ZERO_CHECKPOINT
    first = make_checkpoint(window=0, prev=prev, tag="a")
    second = make_checkpoint(window=0, prev=prev, tag="b")  # conflicting!
    signed_a = SignedCheckpoint(first, (sign(miners[0], first.cid.hex()),))
    signed_b = SignedCheckpoint(second, (sign(miners[0], second.cid.hex()),))
    collateral_before = sca_state(vm, "child//root/sub")["collateral"]
    receipt = call(
        vm, miners[1], sa_addr, "submit_fraud_proof",
        params={"first": signed_a, "second": signed_b, "slash_amount": 150},
    )
    assert receipt.ok, receipt.error
    assert receipt.return_value == 150
    record = sca_state(vm, "child//root/sub")
    assert record["collateral"] == collateral_before - 150
    assert record["slashed_total"] == 150


def test_fraud_proof_can_deactivate_subnet():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    first = make_checkpoint(tag="a")
    second = make_checkpoint(tag="b")
    signed_a = SignedCheckpoint(first, (sign(miners[0], first.cid.hex()),))
    signed_b = SignedCheckpoint(second, (sign(miners[0], second.cid.hex()),))
    call(
        vm, miners[1], sa_addr, "submit_fraud_proof",
        params={"first": signed_a, "second": signed_b, "slash_amount": 250},
    )
    assert sca_state(vm, "child//root/sub")["status"] == STATUS_INACTIVE


def test_fraud_proof_requires_conflict():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    checkpoint = make_checkpoint()
    signed = SignedCheckpoint(checkpoint, (sign(miners[0], checkpoint.cid.hex()),))
    receipt = call(
        vm, miners[1], sa_addr, "submit_fraud_proof",
        params={"first": signed, "second": signed, "slash_amount": 100},
    )
    assert not receipt.ok


def test_fraud_proof_requires_policy_valid_evidence():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    outsider = KeyPair("outsider")
    first = make_checkpoint(tag="a")
    second = make_checkpoint(tag="b")
    signed_a = SignedCheckpoint(first, (sign(outsider, first.cid.hex()),))
    signed_b = SignedCheckpoint(second, (sign(outsider, second.cid.hex()),))
    receipt = call(
        vm, miners[1], sa_addr, "submit_fraud_proof",
        params={"first": signed_a, "second": signed_b, "slash_amount": 100},
    )
    assert not receipt.ok


def test_slashing_burns_from_frozen_pool():
    vm, sa_addr, miners = make_parent(SignaturePolicy(kind="single"))
    burned_before = vm.total_burned
    first = make_checkpoint(tag="a")
    second = make_checkpoint(tag="b")
    signed_a = SignedCheckpoint(first, (sign(miners[0], first.cid.hex()),))
    signed_b = SignedCheckpoint(second, (sign(miners[0], second.cid.hex()),))
    call(
        vm, miners[1], sa_addr, "submit_fraud_proof",
        params={"first": signed_a, "second": signed_b, "slash_amount": 100},
    )
    assert vm.total_burned == burned_before + 100


# ----------------------------------------------------------------------
# One policy, three readers: the SA, a light client and the live auditor
# run SignaturePolicy.signers and must agree on every bundle.
# ----------------------------------------------------------------------
POLICIES = {
    "single": SignaturePolicy(kind="single"),
    "multisig": SignaturePolicy(kind="multisig", threshold=2),
    "threshold": SignaturePolicy(kind="threshold", threshold=2),
}
BUNDLES = (
    "quorum met", "one short", "outsiders appended", "duplicate signer",
    "wrong group id", "wrong signature type",
)


def _bundle(kind, case, miners, payload):
    """``(signatures, the signers a verifier must report or None)``."""
    policy = POLICIES[kind]
    group = ThresholdScheme("tss:/root/sub", threshold=2, participants=3, seed=7)
    foreign = ThresholdScheme("tss:/root/evil", threshold=2, participants=3, seed=9)
    register_threshold_scheme(group)
    register_threshold_scheme(foreign)

    def combined(scheme, *shares):
        partials = [ThresholdScheme.partial_sign(scheme.share_for(i), payload) for i in shares]
        return scheme.combine(partials, payload)

    def signed_by(*keys):
        return tuple(sign(key, payload) for key in keys)

    quorum = miners[: policy.quorum]
    honest = tuple(sorted(key.address for key in quorum))
    if kind == "threshold":
        return {
            "quorum met": (combined(group, 1, 3), (1, 3)),
            # One share cannot combine; all its holder can do is fabricate.
            "one short": (ThresholdSignature("tss:/root/sub", b"\0" * 32, (1,)), None),
            "outsiders appended": (
                group.combine(
                    [ThresholdScheme.partial_sign(s.share_for(i), payload)
                     for s, i in ((group, 1), (foreign, 2), (group, 3))],
                    payload,
                ),
                (1, 3),
            ),
            "duplicate signer": (
                ThresholdSignature("tss:/root/sub", combined(group, 1, 3).tag[::-1], (1, 1)),
                None,
            ),
            "wrong group id": (combined(foreign, 1, 2), None),
            "wrong signature type": (signed_by(*miners), None),
        }[case]
    outsiders = [KeyPair(f"outsider-{i}") for i in range(2)]
    twice = signed_by(miners[0]) * 2
    return {
        "quorum met": (signed_by(*quorum), honest),
        "one short": (signed_by(*quorum[:-1]), None),
        "outsiders appended": (signed_by(*quorum, *outsiders), honest),
        "duplicate signer": (twice, (miners[0].address,) if policy.quorum == 1 else None),
        "wrong group id": (combined(foreign, 1, 2), None),
        "wrong signature type": (combined(group, 1, 3), None),
    }[case]


@pytest.mark.parametrize("case", BUNDLES)
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_sa_light_client_and_auditor_agree_on_every_bundle(kind, case):
    policy = POLICIES[kind]
    vm, sa_addr, miners = make_parent(policy)
    validators = [miner.address for miner in miners]
    checkpoint = make_checkpoint()
    signatures, expected = _bundle(kind, case, miners, checkpoint.cid.hex())
    signed = SignedCheckpoint(checkpoint, signatures)
    assert policy.signers(signed, validators, SUB.path) == expected

    # What the auditor sees: the bundle as if the SA had stored it.
    audited = vm.copy()
    audited.state.set(actor_key(sa_addr, "ckpt_history/0"), signed)
    audited.state.set(actor_key(sa_addr, "last_ckpt_window"), 0)
    sim = Simulator(seed=1)
    monitor = sim.attach(InvariantMonitor(sim=sim, auditors=[CheckpointAuditor()]))
    commit(sim, stub_node(vm=audited), [("checkpoint.committed", (SUB.path, checkpoint.cid.hex()))])
    auditor_accepts = not any("signature policy" in v.description for v in monitor.violations)

    client = CheckpointLightClient(SUB, policy, validators)
    try:
        light_client_signers = client.observe(signed).signers
    except VerificationError:
        light_client_signers = None

    receipt = submit(vm, sa_addr, miners[0], signed)
    assert receipt.ok or receipt.exit_code == ExitCode.USR_FORBIDDEN, receipt.error
    assert receipt.ok == auditor_accepts == (expected is not None)
    assert light_client_signers == expected
