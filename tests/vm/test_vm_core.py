"""Unit tests for the VM: balances, nonces, transactional application."""

import pytest

from repro.crypto.keys import KeyPair
from repro.vm import VM, ActorError, ExitCode, Message
from repro.vm.builtin import default_registry
from repro.vm.vm import BURN_ADDRESS, SYSTEM_ADDRESS


@pytest.fixture
def vm():
    return VM(registry=default_registry())


@pytest.fixture
def alice():
    return KeyPair("alice").address


@pytest.fixture
def bob():
    return KeyPair("bob").address


def test_mint_and_balance(vm, alice):
    vm.mint(alice, 100)
    assert vm.balance_of(alice) == 100
    assert vm.total_minted == 100


def test_plain_send_transfers_value(vm, alice, bob):
    vm.mint(alice, 100)
    receipt = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=30))
    assert receipt.ok
    assert vm.balance_of(alice) == 70
    assert vm.balance_of(bob) == 30


def test_insufficient_funds_rejected(vm, alice, bob):
    vm.mint(alice, 10)
    receipt = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=30))
    assert receipt.exit_code == ExitCode.SYS_INSUFFICIENT_FUNDS
    assert vm.balance_of(alice) == 10
    assert vm.balance_of(bob) == 0


def test_nonce_must_match(vm, alice, bob):
    vm.mint(alice, 100)
    bad = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=1, nonce=5))
    assert bad.exit_code == ExitCode.SYS_SENDER_STATE_INVALID
    ok = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=1, nonce=0))
    assert ok.ok
    replay = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=1, nonce=0))
    assert replay.exit_code == ExitCode.SYS_SENDER_STATE_INVALID


def test_nonce_increments_even_on_failure(vm, alice, bob):
    vm.mint(alice, 10)
    failed = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=100, nonce=0))
    assert not failed.ok
    assert vm.nonce_of(alice) == 1


def test_burn_moves_to_burn_address(vm, alice):
    vm.mint(alice, 100)
    vm.burn(alice, 40)
    assert vm.balance_of(alice) == 60
    assert vm.balance_of(BURN_ADDRESS) == 40
    assert vm.total_burned == 40


def test_transfer_rejects_negative(vm, alice, bob):
    vm.mint(alice, 100)
    with pytest.raises(ActorError):
        vm.transfer(alice, bob, -5)


def test_self_transfer_is_noop(vm, alice):
    vm.mint(alice, 100)
    vm.transfer(alice, alice, 50)
    assert vm.balance_of(alice) == 100


def test_message_validation():
    alice, bob = KeyPair("a").address, KeyPair("b").address
    with pytest.raises(ValueError):
        Message(from_addr=alice, to_addr=bob, value=-1)
    with pytest.raises(ValueError):
        Message(from_addr=alice, to_addr=bob, value=0, nonce=-1)
    with pytest.raises(ValueError):
        Message(from_addr=alice, to_addr=bob, value=0, gas_limit=0)


@pytest.mark.parametrize("field", ["value", "nonce", "gas_limit"])
@pytest.mark.parametrize("bad", [True, 1.0])
def test_message_refuses_what_only_compares_like_an_int(field, bad):
    """``True == 1`` and ``hash(True) == hash(1)``, but a bool encodes
    apart from an int, so a message that took one would equal another
    message and carry a different CID: only a plain int passes."""
    alice, bob = KeyPair("a").address, KeyPair("b").address
    fields = {"value": 1, "nonce": 1, "gas_limit": 1}
    fields[field] = bad
    with pytest.raises(TypeError):
        Message(from_addr=alice, to_addr=bob, **fields)
    Message(from_addr=alice, to_addr=bob, **{**fields, field: 1})


class _Method(str):
    """A str subclass: it would encode like its text, yet seal formats only
    the exact type the encoder's own fast path writes."""


@pytest.mark.parametrize("bad", [None, b"send", 1, _Method("send")])
def test_message_refuses_a_method_that_is_not_a_str(bad):
    alice, bob = KeyPair("a").address, KeyPair("b").address
    with pytest.raises(TypeError):
        Message(from_addr=alice, to_addr=bob, value=1, method=bad)
    Message(from_addr=alice, to_addr=bob, value=1, method="send")


def test_signed_message_roundtrip():
    from repro.vm.message import SignedMessage

    keypair = KeyPair("alice")
    message = Message(from_addr=keypair.address, to_addr=KeyPair("bob").address, value=5)
    signed = SignedMessage.create(message, keypair)
    assert signed.verify_signature()


def test_signed_message_wrong_signer_rejected():
    from repro.vm.message import SignedMessage

    alice, bob = KeyPair("alice"), KeyPair("bob")
    message = Message(from_addr=alice.address, to_addr=bob.address, value=5)
    with pytest.raises(ValueError):
        SignedMessage.create(message, bob)


def test_gas_fee_paid_to_miner(alice, bob):
    vm = VM(registry=default_registry(), gas_price=1)
    miner = KeyPair("miner").address
    vm.mint(alice, 10_000_000)
    receipt = vm.apply_message(Message(from_addr=alice, to_addr=bob, value=10), miner=miner)
    assert receipt.ok
    # The base 100, 1 for the one byte None encodes to, 50 to dispatch:
    # pinned, so a moved gas constant shows here.
    assert receipt.gas_used == 151
    assert vm.balance_of(miner) == receipt.gas_used


def test_gas_fee_requires_headroom(alice, bob):
    vm = VM(registry=default_registry(), gas_price=1)
    vm.mint(alice, 50)  # cannot cover value + max fee
    receipt = vm.apply_message(
        Message(from_addr=alice, to_addr=bob, value=10, gas_limit=1000),
        miner=KeyPair("m").address,
    )
    assert receipt.exit_code == ExitCode.SYS_INSUFFICIENT_FUNDS


def test_out_of_gas_reverts(vm, alice, bob):
    vm.mint(alice, 100)
    receipt = vm.apply_message(
        Message(from_addr=alice, to_addr=bob, value=10, gas_limit=150)
    )
    assert receipt.exit_code == ExitCode.SYS_OUT_OF_GAS
    assert vm.balance_of(bob) == 0


def test_a_limit_below_the_intrinsic_cost_is_charged_once_and_never_replays(alice, bob):
    """A limit the intrinsic charge (101 for ``None`` params) overruns still
    bumps the nonce and pays at most the limit, like a later out-of-gas;
    the same message again is a bad nonce, not a free retry."""
    vm = VM(registry=default_registry(), gas_price=1)
    miner = KeyPair("miner").address
    vm.mint(alice, 1_000)
    message = Message(from_addr=alice, to_addr=bob, value=10, gas_limit=50)
    first = vm.apply_message(message, miner=miner)
    assert (first.exit_code, first.gas_used) == (ExitCode.SYS_OUT_OF_GAS, 50)
    assert vm.nonce_of(alice) == 1
    assert (vm.balance_of(alice), vm.balance_of(miner), vm.balance_of(bob)) == (950, 50, 0)

    replay = vm.apply_message(message, miner=miner)
    assert replay.exit_code == ExitCode.SYS_SENDER_STATE_INVALID
    assert replay.error == "bad nonce 0, expected 1"
    assert replay.gas_used <= message.gas_limit
    assert vm.nonce_of(alice) == 1 and vm.balance_of(alice) == 950


def test_out_of_gas_names_the_charge_that_hit_the_limit():
    """The reason is put together only on the raise, and reads as it did
    when every charge formatted it: ``(verb subject)``, ``(verb)`` without
    a subject, ``(charge)`` without either.  Catches a mutant that drops
    the subject, or that formats ``None`` into the text."""
    from repro.vm.gas import GasTracker, OutOfGas

    def text(*reason) -> str:
        with pytest.raises(OutOfGas) as raised:
            GasTracker(limit=4).charge(5, *reason)
        return str(raised.value)

    assert text("read", "actor/f064/self_id") == (
        "gas limit 4 exceeded (read actor/f064/self_id)"
    )
    assert text("list", "") == "gas limit 4 exceeded (list )"
    assert text("transfer") == "gas limit 4 exceeded (transfer)"
    assert text() == "gas limit 4 exceeded (charge)"


def test_implicit_message_skips_nonce(vm, alice):
    vm.mint(SYSTEM_ADDRESS, 100)
    receipt = vm.apply_implicit(SYSTEM_ADDRESS, alice, "send", value=25)
    assert receipt.ok
    assert vm.balance_of(alice) == 25
    assert vm.nonce_of(SYSTEM_ADDRESS) == 0


def test_state_root_changes_with_state(vm, alice):
    root_before = vm.state_root()
    vm.mint(alice, 1)
    assert vm.state_root() != root_before


def test_copy_is_independent(vm, alice):
    vm.mint(alice, 100)
    clone = vm.branch(vm.state, vm.epoch)
    clone.mint(alice, 1)
    assert vm.balance_of(alice) == 100
    assert clone.balance_of(alice) == 101
    assert vm.state_root() != clone.state_root()
