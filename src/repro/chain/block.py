"""Block headers and full blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.crypto.cid import CID, cached_cid
from repro.crypto.encoding import canonical_body, memo
from repro.crypto.keys import Address
from repro.crypto.merkle import MerkleTree

ZERO_CID = CID(b"\x00" * 32)


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


@dataclass(frozen=True, slots=True)
class HeaderOnly:
    """What a store keeps of a block below its horizon: the header alone.

    Deliberately *not* a :class:`FullBlock` with empty payloads — it has no
    ``messages`` / ``cross_messages`` attribute at all, so a reader that
    scans bodies past the horizon fails loudly instead of under-counting.
    """

    header: BlockHeader

    @property
    def cid(self) -> CID:
        return self.header.cid

    @property
    def height(self) -> int:
        return self.header.height


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

    @property
    def cid(self) -> CID:
        return self.header.cid

    @property
    def height(self) -> int:
        return self.header.height

    def to_canonical(self):
        return (
            canonical_body(self.header),
            tuple(canonical_body(m) for m in self.messages),
            tuple(canonical_body(m) for m in self.cross_messages),
        )

    @staticmethod
    def compute_messages_root(messages, cross_messages) -> CID:
        """Commitment over both message lists, stored in the header."""
        leaves = [("msg", m.cid.to_canonical()) for m in messages]
        leaves += [("cross", m.cid.to_canonical()) for m in cross_messages]
        return MerkleTree(leaves).root_cid

    def messages_root_matches(self) -> bool:
        # Memoized (True only): the block object is immutable and every
        # validator re-checks the same gossiped instance.  A failing check
        # is not cached — it costs nothing extra and keeps the negative
        # path simple.
        if self._mr_ok:
            return True
        ok = (
            self.compute_messages_root(self.messages, self.cross_messages)
            == self.header.messages_root
        )
        if ok:
            object.__setattr__(self, "_mr_ok", True)
        return ok
