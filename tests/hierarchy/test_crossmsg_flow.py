"""VM-level tests of the full cross-msg fund semantics (§IV-A/B).

Two hand-wired VMs (parent /root, child /root/sub) play out the protocol
steps that the consensus layer automates, asserting the paper's fund
semantics: freeze on top-down commitment, mint on top-down application,
burn on bottom-up departure, release on bottom-up application, and the
firewall bound on release.
"""

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import Address, KeyPair
from repro.hierarchy.checkpoint import Checkpoint, CrossMsgMeta, ZERO_CHECKPOINT
from repro.hierarchy.crossmsg import CrossMsg
from repro.hierarchy.gateway import SCA_ADDRESS, sca_key
from repro.hierarchy.subnet_id import SubnetID
from repro.vm.exitcode import ExitCode
from repro.vm.vm import SYSTEM_ADDRESS, VM

from tests.hierarchy.conftest import call, fund, hierarchy_registry, sca_state


ROOT = SubnetID("/root")
SUB = SubnetID("/root/sub")


@pytest.fixture
def pair(users):
    """(parent_vm, child_vm) with the child registered and active."""
    parent = VM(subnet_id="/root", registry=hierarchy_registry())
    parent.create_actor(
        SCA_ADDRESS, "sca",
        params={"subnet_path": "/root", "min_collateral": 100, "checkpoint_period": 10},
    )
    sa_addr = Address("f2sub")
    parent.create_actor(
        sa_addr, "subnet-actor",
        params={
            "subnet_path": "/root/sub", "consensus": "poa",
            "checkpoint_period": 10, "activation_collateral": 100,
        },
    )
    fund(parent, users["miner1"].address, 1000)
    receipt = call(parent, users["miner1"], sa_addr, "join", value=200)
    assert receipt.ok and receipt.return_value == "active"

    child = VM(subnet_id="/root/sub", registry=hierarchy_registry())
    child.create_actor(
        SCA_ADDRESS, "sca",
        params={"subnet_path": "/root/sub", "min_collateral": 100, "checkpoint_period": 10},
    )
    return parent, child, sa_addr


def pump_topdown(parent, child, child_path="/root/sub"):
    """Manually play the consensus role: apply parent-queued top-down msgs."""
    applied = []
    next_apply = child.state.get(sca_key("td_applied_nonce"), 0)
    while True:
        message = parent.state.get(sca_key(f"td_msg/{child_path}/{next_apply}"))
        if message is None:
            break
        receipt = child.apply_implicit(
            SYSTEM_ADDRESS, SCA_ADDRESS, "apply_topdown",
            {"message": message, "nonce": next_apply},
        )
        assert receipt.ok, receipt.error
        applied.append(message)
        next_apply += 1
    return applied


def seal_child_window(child, window=0, proof=None):
    receipt = child.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "seal_window",
        {"window": window, "proof_cid": proof or cid_of(("block", window))},
    )
    assert receipt.ok, receipt.error
    return child.state.get(sca_key(f"ckpt/{window}"))


def commit_checkpoint_via_sa(parent, sa_addr, checkpoint):
    """Parent-side commitment, bypassing signature policy (tested separately)."""
    from repro.vm.message import Message

    # Call the SCA directly as the SA would (the SA address is the caller).
    receipt = parent.apply_implicit(
        sa_addr, SCA_ADDRESS, "commit_child_checkpoint", {"checkpoint": checkpoint}
    )
    return receipt


def apply_bottomup(parent, nonce, messages):
    return parent.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "apply_bottomup",
        {"nonce": nonce, "messages": tuple(messages)},
    )


def test_fund_freezes_and_assigns_nonce(pair, users):
    parent, child, _ = pair
    fund(parent, users["alice"].address, 1000)
    receipt = call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["alice"].address.raw},
        value=400,
    )
    assert receipt.ok, receipt.error
    assert parent.balance_of(users["alice"].address) == 600
    # Funds frozen in the SCA (200 collateral + 400 injected).
    assert parent.balance_of(SCA_ADDRESS) == 600
    record = sca_state(parent, "child//root/sub")
    assert record["circulating"] == 400
    queued = parent.state.get(sca_key("td_msg//root/sub/0"))
    assert queued.value == 400
    assert parent.state.get(sca_key("td_nonce//root/sub")) == 1


def test_topdown_application_mints_in_child(pair, users):
    parent, child, _ = pair
    fund(parent, users["alice"].address, 1000)
    call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["bob"].address.raw},
        value=400,
    )
    applied = pump_topdown(parent, child)
    assert len(applied) == 1
    assert child.balance_of(users["bob"].address) == 400
    assert child.total_minted == 400


def test_topdown_nonce_order_enforced(pair, users):
    parent, child, _ = pair
    fund(parent, users["alice"].address, 1000)
    for value in (10, 20):
        call(
            parent, users["alice"], SCA_ADDRESS, "fund",
            params={"subnet_path": "/root/sub", "to_addr": users["bob"].address.raw},
            value=value,
        )
    msg1 = parent.state.get(sca_key("td_msg//root/sub/1"))
    # Applying nonce 1 before 0 must fail.
    receipt = child.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "apply_topdown", {"message": msg1, "nonce": 1}
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE
    # Replay of an applied nonce must fail too.
    pump_topdown(parent, child)
    receipt = child.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "apply_topdown", {"message": msg1, "nonce": 1}
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_bottomup_burn_and_release_roundtrip(pair, users):
    parent, child, sa_addr = pair
    # Inject 400 for alice in the child.
    fund(parent, users["alice"].address, 1000)
    call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["alice"].address.raw},
        value=400,
    )
    pump_topdown(parent, child)

    # Alice sends 150 back up to bob on the rootnet.
    receipt = call(
        child, users["alice"], SCA_ADDRESS, "send_crossmsg",
        params={"to_subnet": "/root", "to_addr": users["bob"].address.raw},
        value=150,
    )
    assert receipt.ok, receipt.error
    assert child.balance_of(users["alice"].address) == 250
    assert child.total_burned == 150  # burned in the child (§IV-A)

    checkpoint = seal_child_window(child, window=0)
    assert len(checkpoint.cross_meta) == 1
    meta = checkpoint.cross_meta[0]
    assert meta.to_subnet == ROOT and meta.value == 150

    commit = commit_checkpoint_via_sa(parent, sa_addr, checkpoint)
    assert commit.ok, commit.error
    entry = sca_state(parent, "bu_meta/0")
    assert entry["via_child"] == "/root/sub"

    messages = child.state.get(sca_key(f"registry/{meta.msgs_cid.hex()}"))
    receipt = apply_bottomup(parent, 0, messages)
    assert receipt.ok, receipt.error
    assert receipt.return_value["delivered"] == 1
    assert parent.balance_of(users["bob"].address) == 150
    # Circulating supply reduced by the released amount.
    assert sca_state(parent, "child//root/sub")["circulating"] == 250
    # Frozen pool shrank accordingly: 200 collateral + 400 − 150.
    assert parent.balance_of(SCA_ADDRESS) == 450


def test_firewall_refuses_excess_release(pair, users):
    """A compromised child claims more value than was ever injected (§II)."""
    parent, child, sa_addr = pair
    fund(parent, users["alice"].address, 1000)
    call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["alice"].address.raw},
        value=100,
    )
    # Forged batch: the attacker claims 10_000 without burning anything.
    forged = (
        CrossMsg(
            from_subnet=SUB, from_addr=users["carol"].address,
            to_subnet=ROOT, to_addr=users["carol"].address,
            value=10_000,
        ),
    )
    meta = CrossMsgMeta(
        from_subnet=SUB, to_subnet=ROOT, nonce=0,
        msgs_cid=cid_of(forged), count=1, value=10_000,
    )
    checkpoint = Checkpoint(
        source=SUB, proof=cid_of("fake"), prev=ZERO_CHECKPOINT,
        cross_meta=(meta,), window=0, epoch=10,
    )
    commit = commit_checkpoint_via_sa(parent, sa_addr, checkpoint)
    assert commit.ok, commit.error  # metas are accepted unverified…
    receipt = apply_bottomup(parent, 0, forged)
    assert receipt.ok
    assert receipt.return_value["refused"] == 1  # …but application is firewalled
    assert parent.balance_of(users["carol"].address) == 0
    # The injected 100 remains intact for legitimate users.
    assert sca_state(parent, "child//root/sub")["circulating"] == 100


def test_firewall_allows_up_to_circulating(pair, users):
    parent, child, sa_addr = pair
    fund(parent, users["alice"].address, 1000)
    call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["alice"].address.raw},
        value=100,
    )
    forged = (
        CrossMsg(
            from_subnet=SUB, from_addr=users["carol"].address,
            to_subnet=ROOT, to_addr=users["carol"].address,
            value=100,
        ),
    )
    meta = CrossMsgMeta(
        from_subnet=SUB, to_subnet=ROOT, nonce=0,
        msgs_cid=cid_of(forged), count=1, value=100,
    )
    checkpoint = Checkpoint(
        source=SUB, proof=cid_of("fake"), prev=ZERO_CHECKPOINT,
        cross_meta=(meta,), window=0, epoch=10,
    )
    commit_checkpoint_via_sa(parent, sa_addr, checkpoint)
    receipt = apply_bottomup(parent, 0, forged)
    # Exactly the circulating supply is extractable — the §II bound.
    assert receipt.return_value["delivered"] == 1
    assert parent.balance_of(users["carol"].address) == 100
    assert sca_state(parent, "child//root/sub")["circulating"] == 0


def test_bottomup_rejects_wrong_payload(pair, users):
    parent, child, sa_addr = pair
    genuine = (
        CrossMsg(
            from_subnet=SUB, from_addr=users["alice"].address,
            to_subnet=ROOT, to_addr=users["bob"].address, value=1,
        ),
    )
    meta = CrossMsgMeta(
        from_subnet=SUB, to_subnet=ROOT, nonce=0,
        msgs_cid=cid_of(genuine), count=1, value=1,
    )
    checkpoint = Checkpoint(
        source=SUB, proof=cid_of("b"), prev=ZERO_CHECKPOINT,
        cross_meta=(meta,), window=0, epoch=10,
    )
    commit_checkpoint_via_sa(parent, sa_addr, checkpoint)
    tampered = (
        CrossMsg(
            from_subnet=SUB, from_addr=users["alice"].address,
            to_subnet=ROOT, to_addr=users["carol"].address, value=1,
        ),
    )
    receipt = apply_bottomup(parent, 0, tampered)
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_ARGUMENT


def test_checkpoint_chain_integrity_enforced(pair, users):
    parent, child, sa_addr = pair
    first = seal_child_window(child, window=0)
    commit = commit_checkpoint_via_sa(parent, sa_addr, first)
    assert commit.ok
    # A second checkpoint must chain from the first.
    bogus = Checkpoint(
        source=SUB, proof=cid_of("x"), prev=ZERO_CHECKPOINT, window=1, epoch=20,
    )
    receipt = commit_checkpoint_via_sa(parent, sa_addr, bogus)
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE
    # The genuine continuation commits fine.
    second = seal_child_window(child, window=1)
    assert second.prev == first.cid
    receipt = commit_checkpoint_via_sa(parent, sa_addr, second)
    assert receipt.ok


def test_seal_windows_must_be_sequential(pair, users):
    parent, child, _ = pair
    seal_child_window(child, window=0)
    receipt = child.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "seal_window",
        {"window": 2, "proof_cid": cid_of("skip")},
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_crossmsg_to_unregistered_child_fails(pair, users):
    parent, _, _ = pair
    fund(parent, users["alice"].address, 1000)
    receipt = call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/ghost", "to_addr": users["alice"].address.raw},
        value=10,
    )
    assert receipt.exit_code == ExitCode.USR_NOT_FOUND


def test_failed_delivery_triggers_revert(pair, users):
    """§IV-B: a cross-msg that cannot be applied reverts to its source."""
    parent, child, sa_addr = pair
    # Inject funds to alice in the child, then alice sends a cross-msg that
    # will fail at the rootnet (calling a method that does not exist).
    fund(parent, users["alice"].address, 1000)
    call(
        parent, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["alice"].address.raw},
        value=300,
    )
    pump_topdown(parent, child)
    call(
        child, users["alice"], SCA_ADDRESS, "send_crossmsg",
        params={
            "to_subnet": "/root", "to_addr": users["bob"].address.raw,
            "method": "no_such_method",
        },
        value=120,
    )
    checkpoint = seal_child_window(child, window=0)
    commit_checkpoint_via_sa(parent, sa_addr, checkpoint)
    meta = checkpoint.cross_meta[0]
    messages = child.state.get(sca_key(f"registry/{meta.msgs_cid.hex()}"))
    receipt = apply_bottomup(parent, 0, messages)
    assert receipt.ok
    # Delivery failed; bob got nothing; a revert top-down msg was enqueued
    # back toward the child carrying the 120.
    assert parent.balance_of(users["bob"].address) == 0
    revert = parent.state.get(sca_key("td_msg//root/sub/1"))
    assert revert is not None
    assert revert.kind == "revert"
    assert revert.value == 120
    assert revert.to_addr == users["alice"].address
    # Applying the revert in the child restores alice's balance.
    pump_topdown(parent, child)
    assert child.balance_of(users["alice"].address) == 300  # 300 − 120 + 120
