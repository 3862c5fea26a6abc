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


class CID(bytes):
    """An immutable content identifier: the 32-byte digest itself.

    Hashing, equality and ordering are bytes' own, so a CID-keyed dict or
    set probe never re-enters the interpreter, and a CID equals its raw
    digest.  It still encodes as an object (``to_canonical``), never as
    plain bytes.
    """

    __slots__ = ()

    def __new__(cls, digest: bytes) -> "CID":
        if not isinstance(digest, bytes) or len(digest) != 32:
            raise ValueError("CID requires a 32-byte digest")
        return super().__new__(cls, digest)

    @classmethod
    def from_hex(cls, text: str) -> "CID":
        if text.startswith(_PREFIX):
            text = text[len(_PREFIX):]
        return cls(bytes.fromhex(text))

    def short(self) -> str:
        """Abbreviated form for logs and traces."""
        return _PREFIX + self.hex()[:10]

    def to_canonical(self) -> bytes:
        return bytes(self)

    def __repr__(self) -> str:
        return f"CID({self.short()})"

    def __str__(self) -> str:
        return _PREFIX + self.hex()


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
