"""The pluggable state-storage substrate under :class:`StateTree`.

A :class:`StateBackend` is the *deepest* level of a state tree: the
read-only floor the copy-on-write layer chain bottoms out on.  The tree
never writes through to it — block execution writes land in private
layers, forks share frozen layers structurally — so one backend instance
may safely back any number of forks.

The contract exists so the in-memory default can later be swapped for an
out-of-core store (sqlite/LMDB-style, the ROADMAP's millions-of-accounts
item) without touching the VM, chain or runtime layers: an out-of-core
backend only has to answer point reads and one full scan (the tree scans
it when it first builds, or has to rebuild, its leaf table).

Keys are strings; values are treated as immutable records (the VM-wide
convention — actors copy before mutating).  ``bucket_of`` is the single
source of truth for the key → bucket placement of the state-root commitment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Tuple
from zlib import crc32

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old interpreters only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


def bucket_of(key: str, n_buckets: int) -> int:
    """Deterministic key → bucket placement for the sharded state root.

    crc32 is stable across processes and platforms (unlike ``hash()``,
    which is salted per process).
    """
    return crc32(key.encode("utf-8")) % n_buckets


@runtime_checkable
class StateBackend(Protocol):
    """Read-only floor of a state tree (point reads + deterministic scans)."""

    def get(self, key: str, default: Any = None) -> Any:
        """Value stored at *key*, or *default*."""
        ...

    def has(self, key: str) -> bool:
        """True when *key* is stored."""
        ...

    def items(self) -> Iterator[Tuple[str, Any]]:
        """All (key, value) pairs, in sorted key order."""
        ...

    def __len__(self) -> int:
        ...


class MemoryBackend:
    """The in-memory :class:`StateBackend` (and the default: empty)."""

    def __init__(self, entries: Optional[Mapping[str, Any]] = None) -> None:
        self._entries: Dict[str, Any] = dict(entries or {})

    def get(self, key: str, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def has(self, key: str) -> bool:
        return key in self._entries

    def items(self) -> Iterator[Tuple[str, Any]]:
        for key in sorted(self._entries):
            yield key, self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)


#: Shared empty floor for trees constructed without an explicit backend.
#: Read-only by contract, so sharing one instance across all trees is safe.
EMPTY_BACKEND = MemoryBackend()


__all__ = ["StateBackend", "MemoryBackend", "EMPTY_BACKEND", "bucket_of"]
