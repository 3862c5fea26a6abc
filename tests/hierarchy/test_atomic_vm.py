"""VM-level tests for the atomic execution protocol (§IV-D, Fig. 5).

Exercises the SCA coordination state machine with hand-driven VMs: the
execution subnet (LCA) coordinates; party subnets hold the assets and
locks.  The network-driven end-to-end version lives in the integration
tests.
"""

import inspect

import pytest

from repro.crypto.cid import cid_of
from repro.crypto.keys import KeyPair
from repro.hierarchy.gateway import SCA_ADDRESS, sca_key
from repro.vm.exitcode import ExitCode
from repro.vm.vm import SYSTEM_ADDRESS, VM

from tests.hierarchy.conftest import call, fund, hierarchy_registry


@pytest.fixture
def lca_vm():
    vm = VM(subnet_id="/root", registry=hierarchy_registry())
    vm.create_actor(
        SCA_ADDRESS, "sca",
        params={"subnet_path": "/root", "min_collateral": 100, "checkpoint_period": 10},
    )
    return vm


@pytest.fixture
def alice():
    key = KeyPair("alice")
    return key


@pytest.fixture
def bob():
    return KeyPair("bob")


PARTIES = lambda a, b: (("/root/x", a.address.raw), ("/root/y", b.address.raw))


def init(vm, key, exec_id, parties):
    return call(vm, key, SCA_ADDRESS, "init_atomic",
                params={"exec_id": exec_id, "parties": parties})


def atomic_state(vm, exec_id):
    return vm.state.get(sca_key(f"atomic/{exec_id}"))


def test_init_and_commit_happy_path(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, bob.address, 100)
    parties = PARTIES(alice, bob)
    assert init(lca_vm, alice, "swap-1", parties).ok

    output = {"owners": {"asset-a": bob.address.raw, "asset-b": alice.address.raw}}
    output_cid = cid_of(output)
    first = call(lca_vm, alice, SCA_ADDRESS, "submit_output",
                 params={"exec_id": "swap-1", "output_cid": output_cid, "output": output})
    assert first.ok and first.return_value == "pending"
    second = call(lca_vm, bob, SCA_ADDRESS, "submit_output",
                  params={"exec_id": "swap-1", "output_cid": output_cid, "output": output})
    assert second.ok and second.return_value == "committed"
    record = atomic_state(lca_vm, "swap-1")
    assert record["status"] == "committed"
    # Notifications were enqueued toward both party subnets… but those
    # children are not registered here, so routing failed-over to reverts;
    # the coordination state itself is what this test asserts.


def test_mismatched_outputs_abort(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, bob.address, 100)
    init(lca_vm, alice, "swap-2", PARTIES(alice, bob))
    call(lca_vm, alice, SCA_ADDRESS, "submit_output",
         params={"exec_id": "swap-2", "output_cid": cid_of("version-a")})
    receipt = call(lca_vm, bob, SCA_ADDRESS, "submit_output",
                   params={"exec_id": "swap-2", "output_cid": cid_of("version-b")})
    assert receipt.ok and receipt.return_value == "aborted"
    assert atomic_state(lca_vm, "swap-2")["status"] == "aborted"


def test_any_party_can_abort(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, bob.address, 100)
    init(lca_vm, alice, "swap-3", PARTIES(alice, bob))
    call(lca_vm, alice, SCA_ADDRESS, "submit_output",
         params={"exec_id": "swap-3", "output_cid": cid_of("o")})
    receipt = call(lca_vm, bob, SCA_ADDRESS, "abort_atomic", params={"exec_id": "swap-3"})
    assert receipt.ok
    assert atomic_state(lca_vm, "swap-3")["status"] == "aborted"


def test_abort_after_commit_rejected(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, bob.address, 100)
    init(lca_vm, alice, "swap-4", PARTIES(alice, bob))
    output_cid = cid_of("agreed")
    for key in (alice, bob):
        call(lca_vm, key, SCA_ADDRESS, "submit_output",
             params={"exec_id": "swap-4", "output_cid": output_cid})
    receipt = call(lca_vm, alice, SCA_ADDRESS, "abort_atomic", params={"exec_id": "swap-4"})
    # "possible aborts are no longer taken into account" (§IV-D).
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE
    assert atomic_state(lca_vm, "swap-4")["status"] == "committed"


def test_non_party_cannot_submit_or_abort(lca_vm, alice, bob):
    eve = KeyPair("eve")
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, eve.address, 100)
    init(lca_vm, alice, "swap-5", PARTIES(alice, bob))
    receipt = call(lca_vm, eve, SCA_ADDRESS, "submit_output",
                   params={"exec_id": "swap-5", "output_cid": cid_of("x")})
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN
    receipt = call(lca_vm, eve, SCA_ADDRESS, "abort_atomic", params={"exec_id": "swap-5"})
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN


def test_duplicate_exec_id_rejected(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    init(lca_vm, alice, "swap-6", PARTIES(alice, bob))
    receipt = init(lca_vm, alice, "swap-6", PARTIES(alice, bob))
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_needs_two_parties(lca_vm, alice):
    fund(lca_vm, alice.address, 100)
    receipt = init(lca_vm, alice, "solo", (("/root/x", alice.address.raw),))
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_ARGUMENT


# ----------------------------------------------------------------------
# Party-side assets and locks
# ----------------------------------------------------------------------
def test_asset_lifecycle(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    assert call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"}).ok
    # Duplicate creation fails.
    receipt = call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE
    # Plain transfer.
    assert call(lca_vm, alice, SCA_ADDRESS, "transfer_asset",
                params={"name": "nft-1", "to_addr": bob.address.raw}).ok
    asset = lca_vm.state.get(sca_key("asset/nft-1"))
    assert asset["owner"] == bob.address.raw


def test_lock_prevents_transfer(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    assert call(lca_vm, alice, SCA_ADDRESS, "lock_atomic",
                params={"exec_id": "e1", "assets": ("nft-1",)}).ok
    receipt = call(lca_vm, alice, SCA_ADDRESS, "transfer_asset",
                   params={"name": "nft-1", "to_addr": bob.address.raw})
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_lock_requires_ownership(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, bob.address, 100)
    call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    receipt = call(lca_vm, bob, SCA_ADDRESS, "lock_atomic",
                   params={"exec_id": "e1", "assets": ("nft-1",)})
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN


def test_double_lock_rejected(lca_vm, alice):
    fund(lca_vm, alice.address, 100)
    call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    call(lca_vm, alice, SCA_ADDRESS, "lock_atomic",
         params={"exec_id": "e1", "assets": ("nft-1",)})
    receipt = call(lca_vm, alice, SCA_ADDRESS, "lock_atomic",
                   params={"exec_id": "e2", "assets": ("nft-1",)})
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_apply_committed_result_reassigns_owners(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    call(lca_vm, alice, SCA_ADDRESS, "lock_atomic",
         params={"exec_id": "e1", "assets": ("nft-1",)})
    receipt = lca_vm.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "apply_atomic_result",
        {"exec_id": "e1", "status": "committed",
         "output": {"owners": {"nft-1": bob.address.raw}}},
    )
    assert receipt.ok, receipt.error
    asset = lca_vm.state.get(sca_key("asset/nft-1"))
    assert asset["owner"] == bob.address.raw
    assert asset["locked_by"] is None


def test_apply_aborted_result_unlocks_unchanged(lca_vm, alice, bob):
    fund(lca_vm, alice.address, 100)
    call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    call(lca_vm, alice, SCA_ADDRESS, "lock_atomic",
         params={"exec_id": "e1", "assets": ("nft-1",)})
    receipt = lca_vm.apply_implicit(
        SYSTEM_ADDRESS, SCA_ADDRESS, "apply_atomic_result",
        {"exec_id": "e1", "status": "aborted", "output": None},
    )
    assert receipt.ok
    asset = lca_vm.state.get(sca_key("asset/nft-1"))
    assert asset["owner"] == alice.address.raw
    assert asset["locked_by"] is None


def test_user_cannot_forge_atomic_result(lca_vm, alice, bob):
    """Unforgeability (§IV-D): users cannot inject results directly, with
    or without a param naming an internal bypass."""
    fund(lca_vm, alice.address, 100)
    fund(lca_vm, bob.address, 100)
    call(lca_vm, alice, SCA_ADDRESS, "create_asset", params={"name": "nft-1"})
    call(lca_vm, alice, SCA_ADDRESS, "lock_atomic",
         params={"exec_id": "e1", "assets": ("nft-1",)})
    forged = {"exec_id": "e1", "status": "committed",
              "output": {"owners": {"nft-1": bob.address.raw}}}
    for params in (forged, {**forged, "_internal": True}):
        receipt = call(lca_vm, bob, SCA_ADDRESS, "apply_atomic_result", params=params)
        assert not receipt.ok, params
        asset = lca_vm.state.get(sca_key("asset/nft-1"))
        assert asset == {"owner": alice.address.raw, "locked_by": "e1"}


def test_no_exported_method_takes_a_private_param():
    """A message names any param it likes, so no exported method may take
    one that callers are meant not to pass."""
    for code, actor_class in hierarchy_registry()._codes.items():
        for name, fn in actor_class.exported_methods().items():
            params = inspect.signature(fn).parameters
            assert not [p for p in params if p.startswith("_")], f"{code}.{name}"


def test_ill_typed_param_fails_the_message(lca_vm, alice):
    fund(lca_vm, alice.address, 100)
    receipt = init(lca_vm, alice, "bad", 5)
    assert receipt.exit_code == ExitCode.USR_ASSERTION_FAILED
    assert receipt.error == "TypeError"
    assert atomic_state(lca_vm, "bad") is None
    assert lca_vm.nonce_of(alice.address) == 1  # the nonce bump stays
