"""Fixtures for VM-level hierarchy tests (no network, single VM)."""

from __future__ import annotations

import pytest

from repro.crypto.keys import Address, KeyPair
from repro.hierarchy.gateway import SCA_ADDRESS, SubnetCoordinatorActor, sca_key
from repro.hierarchy.subnet_actor import SubnetActor
from repro.vm.builtin import default_registry
from repro.vm.message import Message
from repro.vm.vm import SYSTEM_ADDRESS, VM


def hierarchy_registry():
    registry = default_registry()
    registry.register(SubnetCoordinatorActor)
    registry.register(SubnetActor)
    return registry


@pytest.fixture
def root_vm():
    """A rootnet VM with its SCA installed."""
    vm = VM(subnet_id="/root", registry=hierarchy_registry())
    receipt = vm.create_actor(
        SCA_ADDRESS,
        "sca",
        params={"subnet_path": "/root", "min_collateral": 100, "checkpoint_period": 10},
    )
    assert receipt.ok, receipt.error
    return vm


@pytest.fixture
def users():
    keys = {name: KeyPair(name) for name in ("alice", "bob", "carol", "miner1", "miner2")}
    return keys


def fund(vm, addr, amount):
    vm.mint(addr, amount)


def call(vm, key, to, method, params=None, value=0):
    """Apply a user message and return the receipt."""
    message = Message(
        from_addr=key.address,
        to_addr=to,
        value=value,
        method=method,
        params=params,
        nonce=vm.nonce_of(key.address),
    )
    return vm.apply_message(message)


def system_call(vm, to, method, params=None):
    return vm.apply_implicit(SYSTEM_ADDRESS, to, method, params)


def sca_state(vm, key, default=None):
    return vm.state.get(sca_key(f"{key}"), default)


@pytest.fixture
def deployed_sa(root_vm, users):
    """An SA for /root/sub deployed on the rootnet, not yet activated."""
    sa_addr = Address("f2testsub")
    receipt = root_vm.create_actor(
        sa_addr,
        "subnet-actor",
        params={
            "subnet_path": "/root/sub",
            "consensus": "poa",
            "checkpoint_period": 10,
            "activation_collateral": 100,
            "min_validators": 1,
        },
    )
    assert receipt.ok, receipt.error
    return sa_addr
