"""Unit and property tests for merkle trees."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.encoding import canonical_encode
from repro.crypto.merkle import LEAF_TAG, MerkleTree, hash_layers


def test_root_depends_on_content():
    assert MerkleTree([1, 2, 3]).root != MerkleTree([1, 2, 4]).root


def test_root_depends_on_order():
    assert MerkleTree([1, 2]).root != MerkleTree([2, 1]).root


def test_single_leaf_tree():
    tree = MerkleTree(["only"])
    proof = tree.prove(0)
    assert tree.verify("only", proof)


def test_empty_tree_has_defined_root():
    assert MerkleTree([]).root == MerkleTree([]).root
    assert len(MerkleTree([])) == 0


def test_proofs_verify_for_all_leaves():
    values = [f"item-{i}" for i in range(7)]  # odd count exercises duplication
    tree = MerkleTree(values)
    for i, value in enumerate(values):
        proof = tree.prove(i)
        assert tree.verify(value, proof)


def test_proof_fails_for_wrong_value():
    tree = MerkleTree(["a", "b", "c", "d"])
    proof = tree.prove(1)
    assert not tree.verify("x", proof)


def test_proof_fails_against_other_tree():
    tree_a = MerkleTree(["a", "b", "c", "d"])
    tree_b = MerkleTree(["a", "b", "c", "e"])
    proof = tree_a.prove(0)
    assert not tree_b.verify("a", proof)


def test_stateless_verification():
    tree = MerkleTree(["a", "b", "c"])
    proof = tree.prove(2)
    assert MerkleTree.verify_against_root("c", proof, tree.root)
    assert not MerkleTree.verify_against_root("c", proof, b"\x00" * 32)


def test_prove_out_of_range():
    tree = MerkleTree(["a"])
    with pytest.raises(IndexError):
        tree.prove(1)
    with pytest.raises(IndexError):
        tree.prove(-1)


def test_tree_root_is_the_shared_layers_over_its_leaf_hashes():
    for values in ([], [1], [1, 2, 3], list(range(8))):
        leaves = [hashlib.sha256(LEAF_TAG + canonical_encode(v)).digest() for v in values]
        assert hash_layers(leaves)[-1] == [MerkleTree(values).root]


@given(st.lists(st.integers(), min_size=1, max_size=40), st.data())
def test_every_leaf_provable(values, data):
    tree = MerkleTree(values)
    index = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    proof = tree.prove(index)
    assert tree.verify(values[index], proof)


@given(st.lists(st.integers(), min_size=2, max_size=20))
def test_proof_position_binding(values):
    """A proof for index i does not verify a value from a different index."""
    tree = MerkleTree(values)
    proof = tree.prove(0)
    for other_index in range(1, len(values)):
        if values[other_index] != values[0]:
            assert not tree.verify(values[other_index], proof)
