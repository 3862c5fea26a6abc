"""Unit tests for keys, signatures and the signers of a signature set."""

import gc
import tracemalloc

import pytest

from repro.crypto.keys import Address, KeyPair
from repro.crypto.signature import Signature, sign, valid_signers, verify


def test_keypair_is_deterministic():
    assert KeyPair("alice").address == KeyPair("alice").address
    assert KeyPair("alice").address != KeyPair("bob").address


def test_address_forms():
    key_addr = KeyPair("alice").address
    assert key_addr.raw.startswith("f1")
    assert not key_addr.is_system_actor
    actor_addr = Address.actor(64)
    assert actor_addr.raw == "f064"
    assert actor_addr.is_system_actor


def test_sign_and_verify():
    keypair = KeyPair("alice")
    signature = sign(keypair, {"amount": 10})
    assert verify(signature, {"amount": 10})
    assert verify(signature, {"amount": 10}, keypair=keypair)


def test_verify_rejects_different_message():
    keypair = KeyPair("alice")
    signature = sign(keypair, "msg-a")
    assert not verify(signature, "msg-b")


def test_fabricated_tag_fails_verification():
    keypair = KeyPair("alice")
    forged = Signature(signer=keypair.address, public=keypair.public, tag=b"\x00" * 32)
    assert not verify(forged, "anything")


def test_signature_with_mismatched_address_fails():
    alice, bob = KeyPair("alice"), KeyPair("bob")
    signature = sign(alice, "msg")
    tampered = Signature(signer=bob.address, public=alice.public, tag=signature.tag)
    assert not verify(tampered, "msg")


def test_replaying_tag_on_other_message_fails():
    keypair = KeyPair("alice")
    signature = sign(keypair, "original")
    replay = Signature(signer=keypair.address, public=keypair.public, tag=signature.tag)
    assert not verify(replay, "different")
    assert verify(replay, "original")  # same message still fine


def test_valid_signers_counts_each_authorised_key_once():
    keys = [KeyPair(f"k{i}") for i in range(4)]
    authorized = [k.address for k in keys]
    signatures = [sign(k, "m") for k in keys[:3]] + [sign(keys[0], "m")]
    assert valid_signers(signatures, "m", authorized) == {k.address for k in keys[:3]}


def test_valid_signers_is_order_independent():
    keys = [KeyPair(f"k{i}") for i in range(4)]
    authorized = [k.address for k in keys]
    signatures = [sign(k, "m") for k in keys]
    forward = valid_signers(signatures, "m", authorized)
    assert forward == valid_signers(reversed(signatures), "m", reversed(authorized))
    assert forward == set(authorized)


def test_valid_signers_ignores_unauthorized_signers():
    keys = [KeyPair(f"k{i}") for i in range(3)]
    outsider = KeyPair("outsider")
    authorized = [k.address for k in keys]
    signatures = [sign(keys[0], "m"), sign(outsider, "m")]
    assert valid_signers(signatures, "m", authorized) == {keys[0].address}


def test_valid_signers_rejects_wrong_message():
    keys = [KeyPair(f"k{i}") for i in range(2)]
    signatures = [sign(k, "m") for k in keys]
    assert valid_signers(signatures, "other", [k.address for k in keys]) == set()


# A tag is checked against the key it claims, so it is bound to that key.
# Each test below fails if verify() accepts any tag that was once produced
# for the message (a ledger of every signature, looked up by tag), whoever
# produced it.


def test_a_genuine_tag_relabelled_with_another_key_does_not_verify():
    alice, bob = KeyPair("alice"), KeyPair("bob")
    genuine = sign(alice, "msg")
    relabelled = Signature(signer=bob.address, public=bob.public, tag=genuine.tag)
    assert verify(genuine, "msg")
    assert not verify(relabelled, "msg")


def test_one_tag_relabelled_three_times_is_one_signer_not_three():
    keys = [KeyPair(f"k{i}") for i in range(3)]
    tag = sign(keys[0], "m").tag
    forged = [Signature(signer=k.address, public=k.public, tag=tag) for k in keys]
    authorized = [k.address for k in keys]
    assert valid_signers(forged, "m", authorized) == {keys[0].address}  # its own is genuine


def test_signing_and_verifying_keep_nothing_per_signature():
    """Fails if sign() or verify() records anything per signature: 10^4 of
    each leave under 64 KiB of traced growth."""
    keypair = KeyPair("alice")
    assert verify(sign(keypair, -1), -1)  # warm every code path once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            assert verify(sign(keypair, i), i)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


def test_keys_are_immutable_and_say_who_they_are():
    alice = KeyPair("alice", name="alice")
    with pytest.raises(AttributeError):
        alice.address.raw = "f1forged"
    assert repr(alice) == f"KeyPair(alice, addr={alice.address})"


def test_a_wallet_says_whose_it_is():
    from repro.hierarchy.wallet import Wallet

    alice = KeyPair("alice", name="alice")
    assert repr(Wallet(alice)) == f"Wallet(alice, {alice.address})"
