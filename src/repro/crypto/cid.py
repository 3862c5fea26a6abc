"""Content identifiers (CIDs).

A CID is the sha-256 digest of a value's canonical encoding, as in the paper:
"Checkpoints are always identified through their Content Identifier (CID), a
unique identifier inferred from the checkpoint's hash" (§III-B).
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.crypto.encoding import canonical_encode

_PREFIX = "bafy"  # cosmetic, to make CIDs recognisable in traces


class CID:
    """An immutable content identifier."""

    __slots__ = ("digest",)

    def __init__(self, digest: bytes) -> None:
        if not isinstance(digest, bytes) or len(digest) != 32:
            raise ValueError("CID requires a 32-byte digest")
        object.__setattr__(self, "digest", digest)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("CID is immutable")

    def __reduce__(self):  # copy/pickle rebuild through __init__, not setattr
        return (CID, (self.digest,))

    @classmethod
    def from_hex(cls, text: str) -> "CID":
        if text.startswith(_PREFIX):
            text = text[len(_PREFIX):]
        return cls(bytes.fromhex(text))

    def hex(self) -> str:
        return self.digest.hex()

    def short(self) -> str:
        """Abbreviated form for logs and traces."""
        return _PREFIX + self.digest.hex()[:10]

    def to_canonical(self):
        return self.digest

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CID) and other.digest == self.digest

    def __hash__(self) -> int:
        # CIDs key mempools, chain stores and dedup sets: hashing happens far
        # more often than construction — and a bytes object keeps its own
        # hash once computed, so a second copy here would be 40 B per CID.
        return hash(self.digest)

    def __lt__(self, other: "CID") -> bool:
        return self.digest < other.digest

    def __repr__(self) -> str:
        return f"CID({self.short()})"

    def __str__(self) -> str:
        return _PREFIX + self.digest.hex()


def cid_of(value: Any) -> CID:
    """Compute the CID of any canonically-encodable value."""
    return CID(hashlib.sha256(canonical_encode(value)).digest())


_cache_hits = 0
_cache_misses = 0


def cached_cid(value: Any) -> CID:
    """``cid_of`` with per-object memoization for immutable values.

    The CID is kept on the instance when its class declares
    ``_cid = memo()`` (dataclass ``__eq__``/``repr`` ignore it).  The same
    block or message gossiped to V validators is then hashed once, not V
    times.  Callers must only use this for values that are immutable after
    construction — everything content-addressed in this codebase is.
    """
    global _cache_hits, _cache_misses
    kept = getattr(value, "_cid", False)
    if kept:
        _cache_hits += 1
        return kept
    _cache_misses += 1
    cid = cid_of(value)
    if kept is None:  # declared and still cold
        object.__setattr__(value, "_cid", cid)
    return cid


def cid_cache_stats() -> dict:
    """Process-wide hit/miss totals of :func:`cached_cid` (perf telemetry)."""
    return {"hits": _cache_hits, "misses": _cache_misses}


def reset_cid_cache_stats() -> None:
    global _cache_hits, _cache_misses
    _cache_hits = 0
    _cache_misses = 0
