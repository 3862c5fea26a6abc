"""The state-storage floor under :class:`StateTree`.

A :class:`MemoryBackend` is the *deepest* level of a state tree: the
read-only floor the copy-on-write layer chain bottoms out on.  The tree
never writes through to it — block execution writes land in private
layers, forks share frozen layers structurally — so one backend instance
may safely back any number of forks.

What the tree asks of it is point reads (``get``, ``has``) and one full
scan in sorted key order (``items``, when the tree first builds, or has to
rebuild, its leaf table) — all an out-of-core store would have to answer.

Keys are strings; values are treated as immutable records (the VM-wide
convention — actors copy before mutating).  ``bucket_of`` is the single
source of truth for the key → bucket placement of the state-root commitment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Tuple
from zlib import crc32


def bucket_of(key: str, n_buckets: int) -> int:
    """Deterministic key → bucket placement for the sharded state root.

    crc32 is stable across processes and platforms (unlike ``hash()``,
    which is salted per process).
    """
    return crc32(key.encode("utf-8")) % n_buckets


class MemoryBackend:
    """Read-only floor of a state tree: point reads and a scan in sorted
    key order over a dict (the default floor is an empty one)."""

    def __init__(self, entries: Optional[Mapping[str, Any]] = None) -> None:
        self._entries: Dict[str, Any] = dict(entries or {})

    def get(self, key: str, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def has(self, key: str) -> bool:
        return key in self._entries

    def items(self) -> Iterator[Tuple[str, Any]]:
        for key in sorted(self._entries):
            yield key, self._entries[key]


#: Shared empty floor for trees constructed without an explicit backend.
#: Read-only by contract, so sharing one instance across all trees is safe.
EMPTY_BACKEND = MemoryBackend()


__all__ = ["MemoryBackend", "EMPTY_BACKEND", "bucket_of"]
