"""Single-key signatures (simulated).

A signature tag is ``sha256(pub || secret || message_digest)``.  Producing a
tag therefore requires the :class:`~repro.crypto.keys.KeyPair` object, while
verification must work with public data only — as with real asymmetric
signatures.  Public verifiability is emulated by a global
:class:`SignatureRegistry` that records genuinely-produced tags at signing
time: a tag verifies iff :func:`sign` actually produced it for that
(signer, message).  Attackers in the experiments fabricate tags without
calling :func:`sign`, and those fail verification — exactly the behaviour
real signatures provide.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.encoding import canonical_encode
from repro.crypto.keys import Address, KeyPair


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature over a message by one public key."""

    signer: Address
    public: bytes
    tag: bytes

    def to_canonical(self):
        return (self.signer.raw, self.public, self.tag)


class SignatureRegistry:
    """Record of genuinely-produced (tag, message-digest) pairs.

    Stands in for the public-key math that makes real signatures verifiable
    without the secret.  A tag is a hash over its digest, so it is recorded
    for exactly one: tag -> digest holds the pairs without a tuple apiece.
    """

    def __init__(self) -> None:
        self._seen: dict[bytes, bytes] = {}

    def record(self, tag: bytes, digest: bytes) -> None:
        self._seen[tag] = digest

    def check(self, tag: bytes, digest: bytes) -> bool:
        return self._seen.get(tag) == digest

    def clear(self) -> None:
        self._seen.clear()


_REGISTRY = SignatureRegistry()


def message_digest(message: Any) -> bytes:
    """The digest that gets signed: sha256 of the canonical encoding.

    Memoized on the instance when its class declares
    ``_msg_digest = memo()``: everything signed in this codebase is
    immutable after construction (frozen dataclasses, strings, tuples), and
    the same message is re-digested by every verifying node.  The memo never
    leaks into the canonical encoding (objects encode via ``to_canonical()``
    only).
    """
    kept = getattr(message, "_msg_digest", False)
    if kept:
        return kept
    digest = hashlib.sha256(canonical_encode(message)).digest()
    if kept is None:  # declared and still cold
        object.__setattr__(message, "_msg_digest", digest)
    return digest


def sign(keypair: KeyPair, message: Any) -> Signature:
    """Sign *message* (any canonically-encodable value) with *keypair*."""
    digest = message_digest(message)
    tag = hashlib.sha256(
        b"sig:" + keypair.public + keypair.secret_for_signing() + digest
    ).digest()
    _REGISTRY.record(tag, digest)
    return Signature(signer=keypair.address, public=keypair.public, tag=tag)


def verify(signature: Signature, message: Any, keypair: Optional[KeyPair] = None) -> bool:
    """Verify *signature* over *message* using public data.

    The signer address must match the embedded public key, and the tag must
    have genuinely been produced for this exact message.  When *keypair* is
    supplied (a node re-checking its own output), the tag is additionally
    recomputed.
    """
    if Address.from_pubkey(signature.public) != signature.signer:
        return False
    if len(signature.tag) != 32:
        return False
    digest = message_digest(message)
    if not _REGISTRY.check(signature.tag, digest):
        return False
    if keypair is not None:
        expected = hashlib.sha256(
            b"sig:" + keypair.public + keypair.secret_for_signing() + digest
        ).digest()
        return expected == signature.tag and keypair.address == signature.signer
    return True
