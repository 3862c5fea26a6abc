"""Merkle trees with inclusion proofs.

Used for cross-msg batches (the ``msgsCid`` in a CrossMsgMeta commits to a
group of messages) and for the ``save()`` state snapshots from which users
prove pending funds (§III-C).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.crypto.encoding import canonical_encode


LEAF_TAG = b"leaf:"  # what a leaf hash hashes before the leaf's encoding


def _leaf_hash(value: Any) -> bytes:
    return hashlib.sha256(LEAF_TAG + canonical_encode(value)).digest()


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"node:" + left + right).digest()


def hash_layers(leaves: list) -> list:
    """Every layer over the leaf hashes *leaves*, the root's last.  Odd layers
    duplicate their final hash (bitcoin-style); no leaves is an empty marker's."""
    if not leaves:
        leaves = [hashlib.sha256(b"empty-merkle").digest()]
    layers = [leaves]
    current = leaves
    while len(current) > 1:
        if len(current) % 2 == 1:
            current = current + [current[-1]]
            layers[-1] = current
        current = [_node_hash(current[i], current[i + 1]) for i in range(0, len(current), 2)]
        layers.append(current)
    return layers


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the leaf index and sibling hashes up to the root."""

    index: int
    leaf: bytes
    path: tuple  # tuple[(bytes sibling, bool sibling_is_right)]

    def to_canonical(self):
        return (self.index, self.leaf, tuple((s, r) for s, r in self.path))

    def compute_root(self) -> bytes:
        current = self.leaf
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                current = _node_hash(current, sibling)
            else:
                current = _node_hash(sibling, current)
        return current


class MerkleTree:
    """A binary merkle tree over a sequence of values (:func:`hash_layers`)."""

    def __init__(self, values: Sequence[Any]) -> None:
        self.values = list(values)
        self._layers: list[list[bytes]] = hash_layers([_leaf_hash(v) for v in self.values])

    @property
    def root(self) -> bytes:
        return self._layers[-1][0]

    def __len__(self) -> int:
        return len(self.values)

    def prove(self, index: int) -> MerkleProof:
        """Return an inclusion proof for the value at *index*."""
        if not 0 <= index < len(self.values):
            raise IndexError(f"no leaf at index {index}")
        path = []
        position = index
        for layer in self._layers[:-1]:
            sibling_is_right = position % 2 == 0
            sibling_index = position + 1 if sibling_is_right else position - 1
            path.append((layer[sibling_index], sibling_is_right))
            position //= 2
        return MerkleProof(index=index, leaf=self._layers[0][index], path=tuple(path))

    def verify(self, value: Any, proof: MerkleProof) -> bool:
        """Check that *value* is included under this tree's root via *proof*."""
        if _leaf_hash(value) != proof.leaf:
            return False
        return proof.compute_root() == self.root

    @staticmethod
    def verify_against_root(value: Any, proof: MerkleProof, root: bytes) -> bool:
        """Stateless verification against a known root hash."""
        if _leaf_hash(value) != proof.leaf:
            return False
        return proof.compute_root() == root
