"""Multi-signatures: a set of individual signatures over the same message.

The paper's checkpoint signature policy (§III-B) allows "the signature of an
individual miner, a multi-signature, or a threshold signature".  This module
implements the multi-signature policy: aggregation is a sorted set of
individual signatures, and verification checks a quorum against an
authorised signer set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.crypto.keys import Address
from repro.crypto.signature import Signature, verify


@dataclass(frozen=True)
class MultiSignature:
    """An aggregated collection of signatures over one message."""

    signatures: tuple = field(default_factory=tuple)

    @property
    def signers(self) -> tuple:
        return tuple(s.signer for s in self.signatures)

    def to_canonical(self):
        return tuple(s.to_canonical() for s in self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)


def aggregate(signatures: Iterable[Signature]) -> MultiSignature:
    """Combine individual signatures, deduplicated by signer, sorted.

    Sorting makes the aggregate canonical: any subset of signers yields the
    same MultiSignature bytes regardless of collection order.
    """
    by_signer: dict[Address, Signature] = {}
    for signature in signatures:
        by_signer.setdefault(signature.signer, signature)
    ordered = tuple(sorted(by_signer.values(), key=lambda s: s.signer))
    return MultiSignature(signatures=ordered)


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


def verify_multisig(
    multisig: MultiSignature,
    message: Any,
    authorized: Sequence[Address],
    threshold: int,
) -> bool:
    """Check that at least *threshold* authorised signers validly signed."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return len(valid_signers(multisig.signatures, message, authorized)) >= threshold
