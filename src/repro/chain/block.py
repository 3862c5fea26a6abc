"""Block headers and full blocks."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.cid import CID, cached_cid
from repro.crypto.encoding import canonical_body, canonical_encode, memo
from repro.crypto.keys import Address
from repro.crypto.merkle import LEAF_TAG, hash_layers

ZERO_CID = CID(b"\x00" * 32)

# A root leaf hashes the encoding of (tag, CID digest): a fixed prefix per tag, then the digest.
_MSG_LEAF = LEAF_TAG + canonical_encode(("msg", bytes(32)))[:-32]
_CROSS_LEAF = LEAF_TAG + canonical_encode(("cross", bytes(32)))[:-32]


@dataclass(frozen=True, slots=True)
class BlockHeader:
    """A subnet chain block header.

    ``consensus_data`` carries engine-specific fields (round numbers, PoW
    ticket values, proposer signatures) as a plain dict so the chain layer
    stays engine-agnostic.
    """

    subnet_id: str
    height: int
    parent: CID
    state_root: CID
    messages_root: CID
    timestamp: float
    miner: Address
    consensus_data: dict = field(default_factory=dict)
    _cid: Optional[CID] = memo()  # cached_cid's

    def to_canonical(self):
        return (
            self.subnet_id,
            self.height,
            self.parent.to_canonical(),
            self.state_root.to_canonical(),
            self.messages_root.to_canonical(),
            self.timestamp,
            self.miner.raw,
            self.consensus_data,
        )

    @property
    def cid(self) -> CID:
        # Headers are immutable and hashed constantly (fork choice, ancestry
        # walks, gossip dedup): cache the CID on first computation.
        return cached_cid(self)

    @property
    def is_genesis(self) -> bool:
        return self.height == 0 and self.parent == ZERO_CID


def _derived():
    """A field a block copies from its header once, at construction, so
    that reading it (store lookups, fork choice, vote and commit checks)
    is a slot read and not a chain of property calls.  Like a memo it is
    no ``__init__`` argument and invisible to ``==``/``repr``, but it is
    never cold: ``dataclasses.replace`` and copies carry it too."""
    return field(init=False, repr=False, compare=False)


def _read_header(block) -> None:
    header = block.header
    object.__setattr__(block, "cid", header.cid)
    object.__setattr__(block, "height", header.height)


@dataclass(frozen=True, slots=True)
class HeaderOnly:
    """What a store keeps of the block it adopted a snapshot at: the header
    alone (:meth:`~repro.chain.chainstore.ChainStore.adopt`).

    Deliberately *not* a :class:`FullBlock` with empty payloads — it has no
    ``messages`` / ``cross_messages`` attribute at all, so a reader that
    scans bodies past the anchor fails loudly instead of under-counting.
    """

    header: BlockHeader
    cid: CID = _derived()
    height: int = _derived()

    __post_init__ = _read_header


@dataclass(frozen=True, slots=True)
class FullBlock:
    """A header plus its message payloads.

    ``messages`` are user-signed messages from the subnet mempool;
    ``cross_messages`` are cross-net messages proposed by the consensus from
    the cross-msg pool (§IV-B: "Blocks in subnets include both messages
    originated within the subnet and cross-msgs targeting (or traversing)
    the subnet").
    """

    header: BlockHeader
    messages: tuple = field(default_factory=tuple)
    cross_messages: tuple = field(default_factory=tuple)
    _mr_ok: Optional[bool] = memo()  # messages_root_matches' (True only)
    cid: CID = _derived()
    height: int = _derived()

    __post_init__ = _read_header

    def to_canonical(self):
        return (
            canonical_body(self.header),
            tuple(canonical_body(m) for m in self.messages),
            tuple(canonical_body(m) for m in self.cross_messages),
        )

    @classmethod
    def assemble(cls, messages, cross_messages, **header_fields) -> "FullBlock":
        """The block over this payload, born matched: its header's root is
        computed from the very tuples it holds."""
        messages, cross_messages = tuple(messages), tuple(cross_messages)
        root = cls.compute_messages_root(messages, cross_messages)
        header = BlockHeader(messages_root=root, **header_fields)
        block = cls(header=header, messages=messages, cross_messages=cross_messages)
        object.__setattr__(block, "_mr_ok", True)
        return block

    @staticmethod
    def compute_messages_root(messages, cross_messages) -> CID:
        """Commitment over both message lists, stored in the header: the
        merkle root over leaves ``("msg", cid)`` then ``("cross", cid)``."""
        sha256 = hashlib.sha256
        leaves = [sha256(_MSG_LEAF + m.cid).digest() for m in messages]
        leaves += [sha256(_CROSS_LEAF + m.cid).digest() for m in cross_messages]
        return CID(hash_layers(leaves)[-1][0])

    def messages_root_matches(self) -> bool:
        # Memoized (True only): the block object is immutable and every
        # validator re-checks the same gossiped instance; :meth:`assemble`
        # starts its block matched.  A failing check is not cached — it
        # costs nothing extra and keeps the negative path simple.
        if self._mr_ok:
            return True
        ok = (
            self.compute_messages_root(self.messages, self.cross_messages)
            == self.header.messages_root
        )
        if ok:
            object.__setattr__(self, "_mr_ok", True)
        return ok
