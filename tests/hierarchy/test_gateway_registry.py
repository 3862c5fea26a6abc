"""VM-level tests for SCA child registration, collateral and lifecycle."""

from repro.hierarchy.gateway import (
    SCA_ADDRESS,
    STATUS_ACTIVE,
    STATUS_INACTIVE,
    STATUS_KILLED,
)
from repro.vm.exitcode import ExitCode

from tests.hierarchy.conftest import call, fund, sca_state


def join(vm, users, sa_addr, who="miner1", stake=150):
    fund(vm, users[who].address, stake * 10)
    return call(vm, users[who], sa_addr, "join", value=stake)


def test_join_activates_and_registers(root_vm, users, deployed_sa):
    receipt = join(root_vm, users, deployed_sa)
    assert receipt.ok, receipt.error
    assert receipt.return_value == "active"
    record = sca_state(root_vm, "child//root/sub")
    assert record["status"] == STATUS_ACTIVE
    assert record["collateral"] == 150
    assert record["sa_addr"] == deployed_sa.raw
    # Collateral is frozen in the SCA's balance.
    assert root_vm.balance_of(SCA_ADDRESS) == 150


def test_an_sca_call_uses_pinned_gas(root_vm, users, deployed_sa):
    """A ``fund`` reads and writes SCA state and pays for every access: its
    gas is pinned, so a moved gas constant shows here."""
    join(root_vm, users, deployed_sa)
    fund(root_vm, users["alice"].address, 1000)
    receipt = call(
        root_vm, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["bob"].address.raw}, value=50,
    )
    assert receipt.ok, receipt.error
    assert receipt.gas_used == 331


def test_join_below_activation_stays_instantiated(root_vm, users, deployed_sa):
    fund(root_vm, users["miner1"].address, 1000)
    receipt = call(root_vm, users["miner1"], deployed_sa, "join", value=50)
    assert receipt.ok
    assert receipt.return_value == "instantiated"
    assert sca_state(root_vm, "child//root/sub") is None


def test_two_joins_reach_activation(root_vm, users, deployed_sa):
    fund(root_vm, users["miner1"].address, 1000)
    fund(root_vm, users["miner2"].address, 1000)
    call(root_vm, users["miner1"], deployed_sa, "join", value=60)
    receipt = call(root_vm, users["miner2"], deployed_sa, "join", value=60)
    assert receipt.return_value == "active"
    assert sca_state(root_vm, "child//root/sub")["collateral"] == 120


def test_join_after_activation_adds_collateral(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa, stake=150)
    fund(root_vm, users["miner2"].address, 1000)
    receipt = call(root_vm, users["miner2"], deployed_sa, "join", value=70)
    assert receipt.ok
    assert sca_state(root_vm, "child//root/sub")["collateral"] == 220


def test_leave_releases_stake(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa, who="miner1", stake=100)
    fund(root_vm, users["miner2"].address, 1000)
    call(root_vm, users["miner2"], deployed_sa, "join", value=100)
    balance_before = root_vm.balance_of(users["miner1"].address)
    receipt = call(root_vm, users["miner1"], deployed_sa, "leave")
    assert receipt.ok
    assert receipt.return_value == 100
    assert root_vm.balance_of(users["miner1"].address) == balance_before + 100
    # Remaining collateral still >= min: stays active.
    assert sca_state(root_vm, "child//root/sub")["status"] == STATUS_ACTIVE


def test_leave_below_min_collateral_deactivates(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa, who="miner1", stake=80)
    fund(root_vm, users["miner2"].address, 1000)
    call(root_vm, users["miner2"], deployed_sa, "join", value=80)
    call(root_vm, users["miner1"], deployed_sa, "leave")
    record = sca_state(root_vm, "child//root/sub")
    assert record["status"] == STATUS_INACTIVE
    assert record["collateral"] == 80


def test_rejoin_reactivates(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa, who="miner1", stake=80)
    fund(root_vm, users["miner2"].address, 1000)
    call(root_vm, users["miner2"], deployed_sa, "join", value=80)
    call(root_vm, users["miner1"], deployed_sa, "leave")
    receipt = call(root_vm, users["miner1"], deployed_sa, "join", value=50)
    assert receipt.ok
    assert sca_state(root_vm, "child//root/sub")["status"] == STATUS_ACTIVE


def test_leave_by_non_validator_fails(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa)
    fund(root_vm, users["bob"].address, 100)
    receipt = call(root_vm, users["bob"], deployed_sa, "leave")
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN


def test_kill_requires_unanimity(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa, who="miner1", stake=100)
    fund(root_vm, users["miner2"].address, 1000)
    call(root_vm, users["miner2"], deployed_sa, "join", value=100)
    first = call(root_vm, users["miner1"], deployed_sa, "vote_kill")
    assert first.return_value == "pending"
    assert sca_state(root_vm, "child//root/sub")["status"] == STATUS_ACTIVE
    second = call(root_vm, users["miner2"], deployed_sa, "vote_kill")
    assert second.return_value == "killed"
    assert sca_state(root_vm, "child//root/sub")["status"] == STATUS_KILLED


def test_kill_refunds_stake_pro_rata(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa, who="miner1", stake=100)
    fund(root_vm, users["miner2"].address, 1000)
    call(root_vm, users["miner2"], deployed_sa, "join", value=300)
    m1_before = root_vm.balance_of(users["miner1"].address)
    m2_before = root_vm.balance_of(users["miner2"].address)
    call(root_vm, users["miner1"], deployed_sa, "vote_kill")
    call(root_vm, users["miner2"], deployed_sa, "vote_kill")
    assert root_vm.balance_of(users["miner1"].address) == m1_before + 100
    assert root_vm.balance_of(users["miner2"].address) == m2_before + 300
    assert root_vm.balance_of(SCA_ADDRESS) == 0


def test_killed_subnet_refuses_crossmsgs(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa)
    call(root_vm, users["miner1"], deployed_sa, "vote_kill")
    fund(root_vm, users["alice"].address, 1000)
    receipt = call(
        root_vm, users["alice"], SCA_ADDRESS, "fund",
        params={"subnet_path": "/root/sub", "to_addr": users["alice"].address.raw},
        value=100,
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_register_directly_requires_sa_collateral(root_vm, users):
    # A user calling register directly becomes "the SA" but must still pay.
    fund(root_vm, users["alice"].address, 1000)
    receipt = call(
        root_vm, users["alice"], SCA_ADDRESS, "register",
        params={"subnet_path": "/root/direct", "checkpoint_period": 5},
        value=50,
    )
    assert receipt.exit_code == ExitCode.USR_INSUFFICIENT_FUNDS


def test_register_wrong_parent_rejected(root_vm, users):
    fund(root_vm, users["alice"].address, 1000)
    receipt = call(
        root_vm, users["alice"], SCA_ADDRESS, "register",
        params={"subnet_path": "/root/a/b", "checkpoint_period": 5},
        value=200,
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_ARGUMENT


def test_duplicate_registration_rejected(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa)
    fund(root_vm, users["alice"].address, 1000)
    receipt = call(
        root_vm, users["alice"], SCA_ADDRESS, "register",
        params={"subnet_path": "/root/sub", "checkpoint_period": 5},
        value=200,
    )
    assert receipt.exit_code == ExitCode.USR_ILLEGAL_STATE


def test_release_collateral_requires_sa_caller(root_vm, users, deployed_sa):
    join(root_vm, users, deployed_sa)
    fund(root_vm, users["bob"].address, 100)
    receipt = call(
        root_vm, users["bob"], SCA_ADDRESS, "release_collateral",
        params={"subnet_path": "/root/sub", "to_addr": users["bob"].address.raw, "amount": 10},
    )
    assert receipt.exit_code == ExitCode.USR_FORBIDDEN
