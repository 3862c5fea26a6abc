"""Chain storage: blocks by CID, heads, forks and reorgs."""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.crypto.cid import CID
from repro.chain.block import BlockHeader, FullBlock, HeaderOnly, ZERO_CID


class ChainStore:
    """Stores a subnet's blocks and tracks the canonical head.

    Fork choice is "heaviest chain" by a per-block weight supplied at add
    time (PoW uses accumulated work ≈ height; BFT engines never fork, so
    weight is just height).  Reorg notifications fire with the old and new
    head so chain watchers (mempool, checkpointing, cross-msg pool) can
    react.

    One horizon, ``prune_depth`` below the head, bounds what a block costs
    to remember.  At or above it (:attr:`floor`) a block keeps its payload,
    its fork-choice weight and (``put_state``) its post-state; below it a
    block — canonical or fork — is a :class:`HeaderOnly`, so every
    header-level query (``block_at_height``, ``ancestors``,
    ``canonical_chain``, ``is_canonical``, ``is_extension``,
    ``fork_count``) answers as if nothing had been dropped, while reading
    a forgotten body raises ``AttributeError``.  History below the horizon
    is final for this store: a block arriving there is kept as a header
    and is never a head candidate.  An owner that must stay able to serve
    some block (the last one its parent has checkpointed) sets
    :attr:`hold` to that height, and the floor does not pass it.
    """

    def __init__(self, prune_depth: int = 64) -> None:
        self._blocks: dict[CID, FullBlock | HeaderOnly] = {}
        self._weights: dict[CID, int] = {}
        self._head: Optional[CID] = None
        self._genesis: Optional[CID] = None
        self.prune_depth = prune_depth
        self._state_snapshots: dict[CID, dict] = {}
        # Blocks that still have a body (forks too) by height, and the
        # lowest such height: pruning visits only the heights the horizon
        # crossed since the last head change.
        self._by_height: dict[int, list[CID]] = {}
        self._floor = 0
        self._base = 0  # height of the lowest header held (see adopt)
        self.hold: Optional[int] = None
        self._reorg_listeners: list[Callable[[Optional[CID], CID], None]] = []
        self._forget_listeners: list[Callable[[CID], None]] = []
        # canonical height index, rebuilt lazily after reorgs
        self._canonical: dict[int, CID] = {}

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def head(self) -> Optional[FullBlock]:
        return self._blocks.get(self._head) if self._head else None

    @property
    def head_cid(self) -> Optional[CID]:
        return self._head

    @property
    def genesis(self) -> Optional[FullBlock]:
        return self._blocks.get(self._genesis) if self._genesis else None

    @property
    def height(self) -> int:
        head = self.head
        return head.height if head else -1

    @property
    def floor(self) -> int:
        """Lowest height whose blocks still carry their bodies."""
        return self._floor

    @property
    def base(self) -> int:
        """Height of the lowest header held: 0, or the adopted snapshot's."""
        return self._base

    def get(self, cid: CID) -> FullBlock | HeaderOnly:
        return self._blocks[cid]

    def get_optional(self, cid: CID) -> Optional[FullBlock | HeaderOnly]:
        return self._blocks.get(cid)

    def has(self, cid: CID) -> bool:
        return cid in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def block_at_height(self, height: int) -> Optional[FullBlock | HeaderOnly]:
        """Canonical-chain block at *height* (walks back from the head)."""
        cid = self._canonical.get(height)
        return self._blocks.get(cid) if cid else None

    def ancestors(self, cid: CID) -> Iterator[FullBlock | HeaderOnly]:
        """Yield the chain from *cid* back to the lowest block held."""
        current = cid
        while current != ZERO_CID:
            block = self._blocks.get(current)
            if block is None:
                return
            yield block
            current = block.header.parent

    def canonical_chain(self) -> list:
        """The canonical chain, lowest block held first."""
        if self._head is None:
            return []
        chain = list(self.ancestors(self._head))
        chain.reverse()
        return chain

    def is_canonical(self, cid: CID) -> bool:
        block = self._blocks.get(cid)
        if block is None:
            return False
        return self._canonical.get(block.height) == cid

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_block(self, block: FullBlock, weight: Optional[int] = None) -> bool:
        """Store *block*; returns True if the canonical head changed.

        *weight* defaults to parent weight + 1 (≈ height).  The heaviest
        known tip becomes the head; ties keep the incumbent (first-seen
        wins, as in most longest-chain implementations).
        """
        cid = block.cid
        if cid in self._blocks:
            return False
        parent = block.header.parent
        if block.header.is_genesis:
            if self._genesis is not None:
                raise ValueError("genesis already set")
            self._genesis = cid
        elif parent not in self._blocks:
            raise KeyError(f"orphan block: parent {parent.short()} unknown")
        self._blocks[cid] = block
        if block.height < self._floor:
            # A fork block arriving below the horizon: counted, not kept.
            self._forget(cid)
            return False
        parent_weight = self._weights.get(parent, 0)
        self._weights[cid] = parent_weight + 1 if weight is None else weight
        self._by_height.setdefault(block.height, []).append(cid)

        if self._head is None or self._weights[cid] > self._weights[self._head]:
            old_head = self._head
            self._head = cid
            if old_head is not None and parent == old_head:
                # Plain extension: one incremental index entry, no O(chain)
                # rebuild (which would make long runs quadratic).
                self._canonical[block.height] = cid
            else:
                self._rebuild_canonical()
            self._prune()
            for listener in self._reorg_listeners:
                listener(old_head, cid)
            return True
        return False

    def _rebuild_canonical(self) -> None:
        self._canonical = {}
        for block in self.ancestors(self._head):
            self._canonical[block.height] = block.cid

    def on_head_change(self, listener: Callable[[Optional[CID], CID], None]) -> None:
        """Register a listener called as ``listener(old_head, new_head)``."""
        self._reorg_listeners.append(listener)

    def is_extension(self, old_head: Optional[CID], new_head: CID) -> bool:
        """True when *new_head* is a descendant of *old_head* (no reorg)."""
        if old_head is None:
            return True
        old = self._blocks.get(old_head)
        if old is None:
            return False  # not a block of this store (dropped by adopt)
        for block in self.ancestors(new_head):
            if block.cid == old_head:
                return True
            if block.height <= old.height:
                break
        return False

    # ------------------------------------------------------------------
    # The horizon
    # ------------------------------------------------------------------
    def on_forget(self, listener: Callable[[CID], None]) -> None:
        """Register ``listener(cid)``, called as a block drops to its header."""
        self._forget_listeners.append(listener)

    def _forget(self, cid: CID) -> None:
        self._blocks[cid] = HeaderOnly(self._blocks[cid].header)
        self._weights.pop(cid, None)
        self._state_snapshots.pop(cid, None)
        for listener in self._forget_listeners:
            listener(cid)

    def _prune(self) -> None:
        horizon = self._blocks[self._head].height - self.prune_depth
        if self.hold is not None:
            horizon = min(horizon, self.hold)
        for height in range(self._floor, horizon):
            for cid in self._by_height.pop(height, ()):
                self._forget(cid)
        self._floor = max(self._floor, horizon)

    def adopt(self, header: BlockHeader) -> None:
        """Restart the store at *header*, a block whose post-state the
        caller has verified against a source it trusts.

        Everything held before is dropped: it cannot be connected to the
        new floor, and what lies below a floor is final.  The header is
        the new head and the lowest block held; its weight is what the
        default rule (parent + 1 from a genesis of 1) gives its height.
        """
        cid = header.cid
        self._blocks = {cid: HeaderOnly(header)}
        self._weights = {cid: header.height + 1}
        self._state_snapshots = {}
        self._by_height = {}
        self._canonical = {header.height: cid}
        self._head = cid
        self._base = header.height
        self._floor = header.height + 1

    # ------------------------------------------------------------------
    # Post-states (validating off any block above the horizon)
    # ------------------------------------------------------------------
    def put_state(self, cid: CID, state: object) -> None:
        """Store the post-state of block *cid*.

        The store is agnostic to the snapshot representation; the runtime
        passes frozen :class:`~repro.storage.statetree.StateTree` forks, so
        a snapshot costs O(delta) and shares structure with its neighbours.
        The horizon drops a fork's reference; deltas no longer reachable
        from any retained fork are reclaimed (the trees compact their
        shared chains as they grow).
        """
        self._state_snapshots[cid] = state

    def get_state(self, cid: CID) -> Optional[object]:
        """The stored post-state of block *cid*, or None if pruned."""
        return self._state_snapshots.get(cid)

    # ------------------------------------------------------------------
    # Fork metrics
    # ------------------------------------------------------------------
    def fork_count(self) -> int:
        """Number of blocks ever stored that are not on the canonical chain."""
        return sum(1 for cid in self._blocks if not self.is_canonical(cid))

    def weight_of(self, cid: CID) -> int:
        return self._weights.get(cid, 0)
