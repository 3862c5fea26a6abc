"""VM-level tests for SA membership policies (§III-A)."""

from repro.crypto.keys import Address, KeyPair
from repro.vm.exitcode import ExitCode
from repro.vm.vm import VM

from tests.hierarchy.conftest import call, fund, hierarchy_registry
from repro.hierarchy.gateway import SCA_ADDRESS


MINERS = [KeyPair(f"policy-miner-{i}") for i in range(4)]


def make_parent(**sa_params):
    vm = VM(subnet_id="/root", registry=hierarchy_registry())
    vm.create_actor(
        SCA_ADDRESS, "sca",
        params={"subnet_path": "/root", "min_collateral": 100, "checkpoint_period": 10},
    )
    sa_addr = Address("f2policysub")
    params = {
        "subnet_path": "/root/policied", "consensus": "poa",
        "checkpoint_period": 10, "activation_collateral": 100,
    }
    params.update(sa_params)
    vm.create_actor(sa_addr, "subnet-actor", params=params)
    for miner in MINERS:
        fund(vm, miner.address, 10_000)
    return vm, sa_addr


def test_permissioned_join_requires_allowlist():
    vm, sa = make_parent(
        permissioned=True,
        allowlist=(MINERS[0].address.raw, MINERS[1].address.raw),
    )
    assert call(vm, MINERS[0], sa, "join", value=100).ok
    receipt = call(vm, MINERS[2], sa, "join", value=100)
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN
    assert call(vm, MINERS[1], sa, "join", value=100).ok


def test_min_join_stake_enforced():
    vm, sa = make_parent(min_join_stake=500)
    receipt = call(vm, MINERS[0], sa, "join", value=499)
    assert receipt.exit_code == ExitCode.USR_INSUFFICIENT_FUNDS
    assert call(vm, MINERS[0], sa, "join", value=500).ok


def test_max_validators_cap():
    vm, sa = make_parent(max_validators=2)
    assert call(vm, MINERS[0], sa, "join", value=100).ok
    assert call(vm, MINERS[1], sa, "join", value=100).ok
    receipt = call(vm, MINERS[2], sa, "join", value=100)
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN
    # Existing validators can still top up their stake.
    assert call(vm, MINERS[0], sa, "join", value=50).ok


def test_min_remaining_validators_blocks_leave():
    vm, sa = make_parent(min_remaining_validators=2)
    for miner in MINERS[:3]:
        assert call(vm, miner, sa, "join", value=100).ok
    # 3 -> 2 is allowed; 2 -> 1 is not.
    assert call(vm, MINERS[0], sa, "leave").ok
    receipt = call(vm, MINERS[1], sa, "leave")
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_default_policies_are_permissionless():
    vm, sa = make_parent()
    stranger = KeyPair("policy-stranger")
    fund(vm, stranger.address, 1_000)
    assert call(vm, stranger, sa, "join", value=100).ok


def test_policy_parameters_validated():
    vm = VM(subnet_id="/root", registry=hierarchy_registry())
    vm.create_actor(
        SCA_ADDRESS, "sca",
        params={"subnet_path": "/root", "min_collateral": 100, "checkpoint_period": 10},
    )
    receipt = vm.create_actor(
        Address("f2badpolicy"), "subnet-actor",
        params={
            "subnet_path": "/root/bad", "consensus": "poa",
            "checkpoint_period": 10, "activation_collateral": 100,
            "max_validators": -1,
        },
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_ARGUMENT
