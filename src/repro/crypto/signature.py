"""Single-key signatures (simulated), and who among a set of keys signed.

A signature tag is ``sha256("sig:" || pub || secret || message_digest)``.
Producing a tag requires the :class:`~repro.crypto.keys.KeyPair` object,
while verification must work with public data only — as with real
asymmetric signatures.  Public verifiability is emulated by a *key table*:
:mod:`repro.crypto.keys` keeps one public key -> key pair entry per key
pair, and :func:`verify` looks the signature's public key up there once,
for the address derived from it at key creation (the signer it must name)
and the secret to recompute the tag over the message with, the way
:meth:`ThresholdScheme.verify` checks a group tag against the group
secret.  A tag therefore verifies only for the key that produced it and
the message it was produced over: a fabricated tag fails, and so does a
genuine one relabelled with another signer's address and public key.
Nothing is kept per signature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.crypto.cid import CID
from repro.crypto.encoding import canonical_encode, encode_into, object_prefix
from repro.crypto.keys import Address, KeyPair, key_for_public


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
    """``envelope(message, sign(keypair, message))``, for a
    ``vm.message.Message``, with its memos written from one format.

    The message's tuple is formatted as the encoder would write it (every
    field's type is fixed by ``Message.__post_init__``; only the params go
    through :func:`~repro.crypto.encoding.encode_into`).  Its name prefix
    and that tuple are the digest that gets signed; the tuple and the
    signature's give the envelope's CID (an envelope encodes as its name
    and the pair of them); and the params' own share of it is the
    message's ``_params_size``, which the VM's intrinsic charge measures —
    None for an object param, whose share lacks the object's name.
    """
    params = message.params
    if params is None:
        params_bytes, params_size = b"N", 1
    else:
        out = bytearray()
        if hasattr(params, "to_canonical"):
            encode_into(out, params.to_canonical())
            params_size = None
        else:
            encode_into(out, params)
            params_size = len(out)
        params_bytes = out
    sender = message.from_addr.raw.encode()
    to = message.to_addr.raw.encode()
    method = message.method.encode()
    value = b"%d" % message.value
    nonce = b"%d" % message.nonce
    gas_limit = b"%d" % message.gas_limit
    body = b"l7:s%d:%bs%d:%bi%d:%bs%d:%b%bi%d:%bi%d:%b" % (
        len(sender), sender, len(to), to, len(value), value, len(method), method,
        params_bytes, len(nonce), nonce, len(gas_limit), gas_limit,
    )
    object.__setattr__(
        message, "_msg_digest", hashlib.sha256(object_prefix(type(message)) + body).digest()
    )
    object.__setattr__(message, "_params_size", params_size)
    signature = sign(keypair, message)
    sealed = envelope(message, signature)
    signer = signature.signer.raw.encode()
    public, tag = signature.public, signature.tag
    signed = b"l3:s%d:%bb%d:%bb%d:%b" % (
        len(signer), signer, len(public), public, len(tag), tag,
    )
    cid = CID(hashlib.sha256(object_prefix(envelope) + b"l2:" + body + signed).digest())
    object.__setattr__(sealed, "_cid", cid)
    return sealed


def _tag(public: bytes, secret: bytes, digest: bytes) -> bytes:
    return hashlib.sha256(b"sig:" + public + secret + digest).digest()


def sign(keypair: KeyPair, message: Any) -> Signature:
    """Sign *message* (any canonically-encodable value) with *keypair*."""
    tag = _tag(keypair.public, keypair.secret_for_signing(), message_digest(message))
    return Signature(signer=keypair.address, public=keypair.public, tag=tag)


def verify(signature: Signature, message: Any, keypair: Optional[KeyPair] = None) -> bool:
    """Verify *signature* over *message* using public data.

    The signer address must be the one derived from the embedded public
    key, and the tag must be the one that key produces for this exact
    message.  When *keypair* is supplied (a node re-checking its own
    output), it must also be the key that signed.
    """
    public = signature.public
    holder = key_for_public(public)
    if holder is None or holder.address != signature.signer:
        return False
    if keypair is not None and keypair.public != public:
        return False
    return _tag(public, holder.secret_for_signing(), message_digest(message)) == signature.tag


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
