"""Single-key signatures (simulated), and who among a set of keys signed.

A signature tag is ``sha256("sig:" || pub || secret || message_digest)``.
Producing a tag requires the :class:`~repro.crypto.keys.KeyPair` object,
while verification must work with public data only — as with real
asymmetric signatures.  Public verifiability is emulated by a *key oracle*:
:mod:`repro.crypto.keys` keeps one public -> secret entry per key pair, and
:func:`verify` recomputes the tag from the signature's own public key and
the message, the way :meth:`ThresholdScheme.verify` checks a group tag
against the group secret.  A tag therefore verifies only for the key that
produced it and the message it was produced over: a fabricated tag fails,
and so does a genuine one relabelled with another signer's address and
public key.  Nothing is kept per signature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.crypto.cid import join_cid
from repro.crypto.encoding import canonical_encode, encode_into, object_prefix
from repro.crypto.keys import Address, KeyPair, secret_for_public


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature over a message by one public key."""

    signer: Address
    public: bytes
    tag: bytes

    def to_canonical(self):
        return (self.signer.raw, self.public, self.tag)


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


def seal(envelope: type, message: Any, keypair: KeyPair) -> Any:
    """``envelope(message, sign(keypair, message))`` from one encode of the
    message (a ``vm.message.Message``).

    The bytes hashed into the digest that gets signed are the message's
    name prefix and its tuple, and they yield two more memos before they
    are dropped: the envelope's CID, a join of that tuple and the
    signature's (:func:`~repro.crypto.cid.join_cid`), and the message's
    ``_params_size``, its params' share of the tuple
    (``Message.params_size``), which the VM's intrinsic charge measures.
    """
    body = canonical_encode(message)
    start = len(object_prefix(type(message)))
    object.__setattr__(message, "_msg_digest", hashlib.sha256(body).digest())
    object.__setattr__(message, "_params_size", message.params_size(body, start))
    signature = sign(keypair, message)
    sealed = envelope(message, signature)
    signature_bytes = bytearray()
    encode_into(signature_bytes, signature.to_canonical())
    join_cid(sealed, (memoryview(body)[start:], signature_bytes))
    return sealed


def _tag(public: bytes, secret: bytes, digest: bytes) -> bytes:
    return hashlib.sha256(b"sig:" + public + secret + digest).digest()


def sign(keypair: KeyPair, message: Any) -> Signature:
    """Sign *message* (any canonically-encodable value) with *keypair*."""
    tag = _tag(keypair.public, keypair.secret_for_signing(), message_digest(message))
    return Signature(signer=keypair.address, public=keypair.public, tag=tag)


def verify(signature: Signature, message: Any, keypair: Optional[KeyPair] = None) -> bool:
    """Verify *signature* over *message* using public data.

    The signer address must match the embedded public key, and the tag must
    be the one that key produces for this exact message.  When *keypair* is
    supplied (a node re-checking its own output), it must also be the key
    that signed.
    """
    public = signature.public
    if Address.from_pubkey(public) != signature.signer:
        return False
    digest = message_digest(message)
    if keypair is not None and keypair.public != public:
        return False
    secret = secret_for_public(public)
    return secret is not None and _tag(public, secret, digest) == signature.tag


def valid_signers(
    signatures: Iterable[Signature], message: Any, authorized: Iterable[Address]
) -> set:
    """The authorised addresses that validly signed *message*.

    Signatures from unauthorised addresses are ignored rather than causing
    rejection — a quorum of honest signatures should not be invalidated by
    appended junk.
    """
    allowed = set(authorized)
    return {
        signature.signer
        for signature in signatures
        if signature.signer in allowed and verify(signature, message)
    }
