"""Unit tests for actor dispatch, nested sends and the built-in actors."""

import pytest

from repro.crypto.keys import Address, KeyPair
from repro.vm import VM, Actor, ActorError, ActorRegistry, ExitCode, Message, export
from repro.vm.builtin import default_registry
from repro.vm.vm import SYSTEM_ADDRESS


class CounterActor(Actor):
    CODE = "counter"

    @export
    def constructor(self, ctx, start: int = 0) -> None:
        ctx.state_set("count", start)

    @export
    def increment(self, ctx, by: int = 1) -> int:
        count = ctx.state_get("count") + by
        ctx.state_set("count", count)
        ctx.emit("incremented", count)
        return count

    @export
    def fail_after_write(self, ctx) -> None:
        ctx.state_set("count", 999_999)
        ctx.abort(ExitCode.USR_ASSERTION_FAILED, "deliberate")

    def not_exported(self, ctx) -> None:  # pragma: no cover
        raise AssertionError("must never be callable")


class ProxyActor(Actor):
    CODE = "proxy"

    @export
    def forward(self, ctx, target: str, method: str, tolerate_failure: bool = False):
        receipt = ctx.send(Address(target), method)
        if not receipt.ok and not tolerate_failure:
            ctx.abort(receipt.exit_code, f"forwarded call failed: {receipt.error}")
        return receipt.exit_code.value


@pytest.fixture
def vm():
    registry = default_registry()
    registry.register(CounterActor)
    registry.register(ProxyActor)
    return VM(registry=registry)


@pytest.fixture
def user():
    return KeyPair("user").address


def test_constructor_runs_on_create(vm):
    addr = Address.actor(10)
    receipt = vm.create_actor(addr, "counter", params={"start": 5})
    assert receipt.ok
    assert vm.actor_code(addr) == "counter"


def test_method_dispatch_and_return_value(vm, user):
    addr = Address.actor(10)
    vm.create_actor(addr, "counter")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(from_addr=user, to_addr=addr, value=0, method="increment", params={"by": 3})
    )
    assert receipt.ok
    assert receipt.return_value == 3


def test_events_recorded_in_receipt(vm, user):
    addr = Address.actor(10)
    vm.create_actor(addr, "counter")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(from_addr=user, to_addr=addr, value=0, method="increment")
    )
    assert ("incremented", 1) in receipt.events


def test_unknown_method_rejected(vm, user):
    addr = Address.actor(10)
    vm.create_actor(addr, "counter")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(from_addr=user, to_addr=addr, value=0, method="not_exported")
    )
    assert receipt.exit_code == ExitCode.SYS_INVALID_METHOD


def test_abort_reverts_writes(vm, user):
    addr = Address.actor(10)
    vm.create_actor(addr, "counter", params={"start": 7})
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(from_addr=user, to_addr=addr, value=0, method="fail_after_write")
    )
    assert receipt.exit_code == ExitCode.USR_ASSERTION_FAILED
    check = vm.apply_implicit(SYSTEM_ADDRESS, addr, "increment", {"by": 0})
    assert check.return_value == 7  # the 999_999 write was reverted


def test_abort_reverts_value_transfer(vm, user):
    addr = Address.actor(10)
    vm.create_actor(addr, "counter")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(from_addr=user, to_addr=addr, value=100, method="fail_after_write")
    )
    assert not receipt.ok
    assert vm.balance_of(user) == 1000


def test_nested_send_success(vm, user):
    counter = Address.actor(10)
    proxy = Address.actor(11)
    vm.create_actor(counter, "counter")
    vm.create_actor(proxy, "proxy")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(
            from_addr=user, to_addr=proxy, value=0, method="forward",
            params={"target": counter.raw, "method": "increment"},
        )
    )
    assert receipt.ok
    check = vm.apply_implicit(SYSTEM_ADDRESS, counter, "increment", {"by": 0})
    assert check.return_value == 1


def test_nested_send_failure_reverts_only_callee(vm, user):
    counter = Address.actor(10)
    proxy = Address.actor(11)
    vm.create_actor(counter, "counter", params={"start": 3})
    vm.create_actor(proxy, "proxy")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(
            from_addr=user, to_addr=proxy, value=0, method="forward",
            params={
                "target": counter.raw,
                "method": "fail_after_write",
                "tolerate_failure": True,
            },
        )
    )
    assert receipt.ok  # the proxy tolerated the failure
    assert receipt.return_value == ExitCode.USR_ASSERTION_FAILED.value
    check = vm.apply_implicit(SYSTEM_ADDRESS, counter, "increment", {"by": 0})
    assert check.return_value == 3  # callee write reverted


def test_nested_failure_propagates_when_not_tolerated(vm, user):
    counter = Address.actor(10)
    proxy = Address.actor(11)
    vm.create_actor(counter, "counter")
    vm.create_actor(proxy, "proxy")
    vm.mint(user, 1000)
    receipt = vm.apply_message(
        Message(
            from_addr=user, to_addr=proxy, value=0, method="forward",
            params={"target": counter.raw, "method": "fail_after_write"},
        )
    )
    assert receipt.exit_code == ExitCode.USR_ASSERTION_FAILED


def test_create_actor_twice_fails(vm):
    addr = Address.actor(10)
    vm.create_actor(addr, "counter")
    with pytest.raises(ActorError):
        vm.create_actor(addr, "counter")


def test_registry_rejects_duplicate_code():
    registry = ActorRegistry()
    registry.register(CounterActor)
    registry.register(CounterActor)  # same class is fine

    class Impostor(Actor):
        CODE = "counter"

    with pytest.raises(ValueError):
        registry.register(Impostor)


def test_registry_rejects_non_actor():
    registry = ActorRegistry()
    with pytest.raises(TypeError):
        registry.register(dict)


def test_default_constructor_rejects_params(vm):
    addr = Address.actor(30)
    receipt_ok = vm.create_actor(addr, Actor.CODE)
    assert receipt_ok.ok
    addr2 = Address.actor(31)
    receipt_bad = vm.create_actor(addr2, Actor.CODE, params={"junk": 1})
    assert receipt_bad.exit_code == ExitCode.USR_ILLEGAL_ARGUMENT
