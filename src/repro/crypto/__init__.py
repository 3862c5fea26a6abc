"""Simulated cryptographic substrate.

Real deployments of hierarchical consensus use secp256k1/BLS signatures and
multihash CIDs.  This package provides deterministic, dependency-free
equivalents that preserve the properties the protocol logic relies on
*within the simulation*:

- content addressing: equal content → equal :class:`~repro.crypto.cid.CID`;
- unforgeability-in-simulation: producing a valid signature for a key
  requires holding that :class:`~repro.crypto.keys.KeyPair` object;
- quorums: a set of individual signatures (:func:`~repro.crypto.signature.valid_signers`)
  and a k-of-n threshold signature count only the signers that actually
  signed.

See DESIGN.md §1 for why this substitution preserves the behaviours the
experiments measure.
"""

from repro.crypto.encoding import canonical_encode
from repro.crypto.cid import CID, cid_of
from repro.crypto.keys import Address, KeyPair
from repro.crypto.signature import Signature, sign, verify
from repro.crypto.threshold import ThresholdScheme, ThresholdSignature
from repro.crypto.merkle import MerkleTree, MerkleProof

__all__ = [
    "canonical_encode",
    "CID",
    "cid_of",
    "Address",
    "KeyPair",
    "Signature",
    "sign",
    "verify",
    "ThresholdScheme",
    "ThresholdSignature",
    "MerkleTree",
    "MerkleProof",
]
