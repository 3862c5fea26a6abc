"""Versioned state tree with snapshot/revert, cheap forks and an
incremental (bucketed) state-root commitment.

The VM wraps every message application in a snapshot: if the message aborts,
the tree reverts, leaving no partial writes (the transactional semantics the
paper's cross-msg failure handling relies on, §IV-B).

Structure — three read levels, newest wins:

    mutable layers   [{...}, {...}]     snapshot/commit/revert transactions
    frozen chain     F2 -> F1 -> None   immutable deltas shared across forks
    backend          MemoryBackend      read-only floor (empty by default)

A snapshot pushes a new mutable layer; writes always go to the top layer;
commit folds the top layer into its parent; revert drops it.  ``fork()``
freezes the mutable base layer onto the frozen chain and hands out a clone
sharing that chain, which is how block assembly/validation branch off a
parent state without copying it.  The chain keeps one layer per size class
(a layer's ``len(entries).bit_length()``): the new layer merges, into a new
dict, with every layer below it of the same or a smaller class.  Classes
then strictly grow with depth, so a read probes at most the largest layer's
bit length of frozen layers, and a fork costs amortised O(delta x log).

``root()`` is the state-root commitment block headers carry.  Keys are
sharded into ``n_buckets`` buckets (crc32, process-independent); a bucket's
digest is the sha-256 of the canonical encoding of its live ``{key: value}``
dict, and the root hashes the fixed-width digests together.  A tree carries
the digest list and the set of *keys* written since it was computed; what
makes a root cost O(keys written x log bucket) is the leaf table: one dict
per chain of forks, shared by reference, mapping bucket -> (tag, keys,
leaves), two parallel lists in key order — the live keys and their
``enc(key) + enc(commit value)`` bytes — where the tag is the digest those
leaves last produced (two list slots per key on top of the leaf bytes).
``root()`` places each dirty key of a touched bucket by bisection (one
``get`` each) — replacing its leaf, inserting a new one, or popping a
tombstone — and hashes the leaves as they stand, never re-sorting, then
re-tags the bucket.  When the tag is not the digest this tree inherited
for the bucket — another fork of the same parent rooted in between (a
sibling block, a re-proposal), or a first root — the bucket is rebuilt
from one merged pass over the whole state and sorted once, the only scan
left.  Bucket membership and in-bucket ordering are pure functions of the
key, so the root is independent of write order, snapshot layering, fork
history, and event-schedule perturbations (the DET determinism contract).
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import sha256
from typing import Any, Iterator, Optional, Sequence

from repro.crypto.cid import CID
from repro.crypto.encoding import canonical_body, encode_into
from repro.storage.backend import EMPTY_BACKEND, MemoryBackend, bucket_of

_DELETED = object()

#: Default bucket count for the sharded root commitment.
DEFAULT_BUCKETS = 256

#: Stands in for the leaf-table entry of a bucket nobody has rooted yet:
#: its tag matches no digest.
_UNTAGGED = (None,)


class _FrozenLayer:
    """One immutable delta (key -> value-or-tombstone) in a tree's shared
    history.  Never mutated after construction — forks share these by
    reference.
    """

    __slots__ = ("entries", "parent", "depth")

    def __init__(self, entries: dict[str, Any], parent: Optional["_FrozenLayer"]) -> None:
        self.entries = entries
        self.parent = parent
        self.depth = 1 + (parent.depth if parent is not None else 0)


class StateTree:
    """A layered key-value state with cheap snapshot/revert and forks."""

    def __init__(
        self,
        backend: Optional[MemoryBackend] = None,
        n_buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        self._backend: MemoryBackend = backend if backend is not None else EMPTY_BACKEND
        self._frozen: Optional[_FrozenLayer] = None
        self._layers: list[dict[str, Any]] = [{}]
        self._n_buckets = n_buckets
        self._digests: Optional[list[bytes]] = None  # per-bucket, None until first root()
        self._dirty: set[str] = set()  # keys written since digests were cached
        #: bucket -> (tag, keys, leaves), an empty bucket's as two ``()``; the
        #: same dict in every fork of this tree.
        self._table: dict[int, tuple[Optional[bytes], Sequence[str], Sequence[bytes]]] = {}
        #: Buckets re-hashed / leaves encoded by the most recent ``root()``
        #: call (perf gauges).
        self.last_root_rehashed = 0
        self.last_root_leaves_encoded = 0

    # ------------------------------------------------------------------
    # Reads / writes
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        layers = self._layers
        for layer in reversed(layers) if len(layers) > 1 else layers:
            if key in layer:
                value = layer[key]
                return default if value is _DELETED else value
        frozen = self._frozen
        while frozen is not None:
            entries = frozen.entries
            if key in entries:
                value = entries[key]
                return default if value is _DELETED else value
            frozen = frozen.parent
        return self._backend.get(key, default)

    def has(self, key: str) -> bool:
        return self.get(key, _DELETED) is not _DELETED

    def set(self, key: str, value: Any) -> None:
        if value is _DELETED:
            raise ValueError("reserved sentinel cannot be stored")
        self._layers[-1][key] = value
        if self._digests is not None:
            self._dirty.add(key)

    def delete(self, key: str) -> None:
        self._layers[-1][key] = _DELETED
        if self._digests is not None:
            self._dirty.add(key)

    def keys(self, prefix: str = "") -> Iterator[str]:
        """Yield live keys (sorted) that start with *prefix*."""
        for key, _ in self.items(prefix):
            yield key

    def items(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        merged = self._merged()
        live = [
            key for key, value in merged.items()
            if value is not _DELETED and key.startswith(prefix)
        ]
        for key in sorted(live):
            yield key, merged[key]

    def _merged(self) -> dict[str, Any]:
        """Full merged map including tombstones (newest wins)."""
        merged: dict[str, Any] = dict(self._backend.items())
        chain: list[_FrozenLayer] = []
        frozen = self._frozen
        while frozen is not None:
            chain.append(frozen)
            frozen = frozen.parent
        for layer in reversed(chain):  # oldest first
            merged.update(layer.entries)
        for mutable in self._layers:
            merged.update(mutable)
        return merged

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Push a new write layer; returns a token for sanity checking."""
        self._layers.append({})
        return len(self._layers) - 1

    def commit(self, token: Optional[int] = None) -> None:
        """Fold the top layer into its parent."""
        self._check_token(token)
        top = self._layers.pop()
        self._layers[-1].update(top)

    def revert(self, token: Optional[int] = None) -> None:
        """Discard the top layer."""
        self._check_token(token)
        popped = self._layers.pop()
        if self._digests is not None:
            # The cached digests may already reflect the discarded writes
            # (root() inside an open snapshot cleared their dirty marks), so
            # the reverted keys must be re-marked.
            self._dirty.update(popped)

    def _check_token(self, token: Optional[int]) -> None:
        if len(self._layers) == 1:
            raise RuntimeError("no open snapshot to close")
        if token is not None and token != len(self._layers) - 1:
            raise RuntimeError(
                f"snapshot token mismatch: expected {len(self._layers) - 1}, got {token}"
            )

    @property
    def depth(self) -> int:
        """Number of open snapshot layers (0 = no transaction in flight)."""
        return len(self._layers) - 1

    @property
    def chain_depth(self) -> int:
        """Length of the shared frozen-delta chain under the mutable layers."""
        return self._frozen.depth if self._frozen is not None else 0

    # ------------------------------------------------------------------
    # Commitments
    # ------------------------------------------------------------------
    def flatten(self) -> dict[str, Any]:
        """Return the fully-merged live state as a plain dict (O(state))."""
        merged = self._merged()
        return {k: v for k, v in merged.items() if v is not _DELETED}

    def root(self) -> CID:
        """Content commitment over the full live state (the 'state root').

        Incremental: only keys written since the previous call are
        re-encoded and only their buckets re-hashed.  The commitment itself
        is a pure function of the live key/value content.
        """
        n = self._n_buckets
        table = self._table
        digests = self._digests
        if digests is None:
            digests = [b""] * n  # no tag is empty: a first root rebuilds every bucket
            touched: dict[int, list[str]] = {bucket: [] for bucket in range(n)}
        else:
            touched = {}
            for key in self._dirty:
                touched.setdefault(bucket_of(key, n), []).append(key)
            if touched:
                digests = list(digests)  # forks hold the old list by reference
        self.last_root_rehashed = len(touched)
        missed = {b for b in touched if table.get(b, _UNTAGGED)[0] != digests[b]}
        rebuilt = self._scan(missed) if missed else {}
        encoded = sum(len(keys) for keys, _ in rebuilt.values())
        for bucket, dirty in touched.items():
            entry = rebuilt.get(bucket)
            if entry is not None:
                keys, leaves = entry
            else:
                # Untagged while mutated: no tree may take a half-applied
                # bucket for the one its digest names, whatever raises below.
                _, keys, leaves = table.pop(bucket)
                if not keys:
                    keys, leaves = [], []
                for key in dirty:
                    value = self.get(key, _DELETED)
                    at = bisect_left(keys, key)
                    present = at < len(keys) and keys[at] == key
                    if value is not _DELETED:
                        leaf = _leaf(key, value)
                        encoded += 1
                        if present:
                            leaves[at] = leaf
                        else:
                            keys.insert(at, key)
                            leaves.insert(at, leaf)
                    elif present:
                        del keys[at], leaves[at]
            # Exactly the bytes canonical_encode({key: commit_value}) yields.
            digest = sha256(b"d%d:" % len(keys) + b"".join(leaves)).digest()
            # Most buckets of a small state are empty: they hold no lists.
            table[bucket] = (digest, keys, leaves) if keys else (digest, (), ())
            digests[bucket] = digest
        self._digests = digests
        self._dirty.clear()
        self.last_root_leaves_encoded = encoded
        # Combine per-bucket digests directly (fixed-width, fixed-count
        # bytes need no canonical framing): one sha-256 over 32*N bytes.
        return CID(sha256(b"".join(digests)).digest())

    def _scan(self, buckets: set[int]) -> dict[int, tuple[list[str], list[bytes]]]:
        """(keys, leaves) in key order for *buckets*, from one pass over
        everything."""
        n = self._n_buckets
        merged = self._merged()
        found: dict[int, list[str]] = {bucket: [] for bucket in buckets}
        for key, value in merged.items():
            if value is not _DELETED:
                keys = found.get(bucket_of(key, n))
                if keys is not None:
                    keys.append(key)
        for keys in found.values():
            keys.sort()
        return {
            bucket: (keys, [_leaf(key, merged[key]) for key in keys])
            for bucket, keys in found.items()
        }

    # ------------------------------------------------------------------
    # Forks
    # ------------------------------------------------------------------
    def fork(self) -> "StateTree":
        """Branch off the current state, sharing history.

        The mutable base layer is stacked onto the shared chain (an
        externally-invisible repacking: reads, depth and tokens are
        unchanged) and the clone points at the same chain with a fresh
        private write layer.  Cached bucket digests and the leaf table
        transfer to the clone, so its first ``root()`` after k writes
        re-encodes only k leaves.

        Forking with open snapshots leaves this tree's transaction stack
        untouched; the clone sees the merged view at depth 0 (which
        ``VM.branch`` relies on).
        """
        if len(self._layers) == 1:
            self._frozen = self._stacked(self._layers[0])
            self._layers = [{}]
            shared = self._frozen
        else:
            merged: dict[str, Any] = {}
            for layer in self._layers:
                merged.update(layer)
            shared = self._stacked(merged)

        clone = StateTree(backend=self._backend, n_buckets=self._n_buckets)
        clone._frozen = shared
        clone._table = self._table
        if self._digests is not None:
            clone._digests = self._digests  # shared until either side's root() writes
            clone._dirty = set(self._dirty)
        return clone

    def _stacked(self, entries: dict[str, Any]) -> Optional[_FrozenLayer]:
        """The frozen chain with *entries* on top (content-preserving).

        *entries* merges into each layer below it of the same or a smaller
        size class, into a new dict: layers older forks share are never
        mutated.  A merge that reaches the bottom drops the tombstones that
        mask no backend entry.
        """
        below = self._frozen
        if not entries:
            return below
        size_class = len(entries).bit_length()
        while below is not None and len(below.entries).bit_length() <= size_class:
            entries = {**below.entries, **entries}
            size_class = len(entries).bit_length()
            below = below.parent
            if below is None:
                backend = self._backend
                entries = {
                    key: value
                    for key, value in entries.items()
                    if value is not _DELETED or backend.has(key)
                }
                if not entries:
                    return None
        return _FrozenLayer(entries, below)


def _leaf(key: str, value: Any) -> bytes:
    """``enc(key) + enc(commit value)``: one entry of a bucket's dict encoding."""
    if type(value) is int:  # balances, nonces, counters: most dirty keys
        name = key.encode("utf-8")
        digits = b"%d" % value
        return b"s%d:%bi%d:%b" % (len(name), name, len(digits), digits)
    out = bytearray()
    encode_into(out, key)
    encode_into(out, _commit_value(value))
    return bytes(out)


def _commit_value(value: Any) -> Any:
    """Reduce a stored value to something canonically encodable."""
    if hasattr(value, "to_canonical"):
        return canonical_body(value)
    if isinstance(value, dict):
        return {k: _commit_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_commit_value(v) for v in value]
    return value
