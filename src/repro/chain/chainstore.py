"""Chain storage: blocks by CID, heads, forks and reorgs."""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.crypto.cid import CID
from repro.chain.block import BlockHeader, FullBlock, HeaderOnly, ZERO_CID


class ChainStore:
    """Stores a subnet's blocks and tracks the canonical head.

    Fork choice is "longest chain": the highest tip is the head (BFT
    engines never fork, and every PoW block is one unit of work).  Reorg
    notifications fire with the old and new head.

    One horizon, ``prune_depth`` below the head, bounds what a block costs
    to remember.  At or above it (:attr:`floor`) a block keeps its payload
    and (``put_state``) its post-state; below it
    the store keeps nothing — canonical block or fork, header included —
    so every header-level query (``block_at_height``, ``ancestors``,
    ``is_canonical``) answers from the floor up, and
    ``fork_count`` still counts the forks it dropped.  History below the
    horizon is final and held elsewhere: by the parent's checkpoints, and
    by the snapshot every peer serves at or above its floor.  A block
    arriving there has no parent left to connect to.  An owner that must
    stay able to serve some block (the last one its parent has
    checkpointed) sets :attr:`hold` to that height, and the floor does not
    pass it.  The one header held without its body is the anchor
    :meth:`adopt` installs, until the floor passes it too.
    """

    def __init__(self, prune_depth: int = 64) -> None:
        self._blocks: dict[CID, FullBlock | HeaderOnly] = {}
        self._head: Optional[CID] = None
        self._genesis: Optional[CID] = None
        self.prune_depth = prune_depth
        self._state_snapshots: dict[CID, dict] = {}
        # Blocks that still have a body (forks too) by height, and the
        # lowest such height: pruning visits only the heights the horizon
        # crossed since the last head change.
        self._by_height: dict[int, list[CID]] = {}
        self._floor = 0
        self._base = 0  # height of the lowest block held (see adopt)
        self._forks_dropped = 0
        self.hold: Optional[int] = None
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
        """Height of the lowest block held: the floor, or the adopted
        anchor's until the floor passes it.  Nothing at or below it can
        join this store again."""
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

    def is_canonical(self, cid: CID) -> bool:
        block = self._blocks.get(cid)
        if block is None:
            return False
        return self._canonical.get(block.height) == cid

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_block(self, block: FullBlock) -> bool:
        """Store *block*; returns True if the canonical head changed.

        The highest known tip becomes the head; ties keep the incumbent
        (first-seen wins, as in most longest-chain implementations).
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
        self._by_height.setdefault(block.height, []).append(cid)

        if self._head is None or block.height > self._blocks[self._head].height:
            old_head = self._head
            self._head = cid
            if old_head is not None and parent == old_head:
                # Plain extension: one incremental index entry, no O(chain)
                # rebuild (which would make long runs quadratic).
                self._canonical[block.height] = cid
            else:
                self._rebuild_canonical()
            self._prune()
            return True
        return False

    def _rebuild_canonical(self) -> None:
        self._canonical = {}
        for block in self.ancestors(self._head):
            self._canonical[block.height] = block.cid

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
        """Register ``listener(cid)``, called as a block leaves the store."""
        self._forget_listeners.append(listener)

    def _forget(self, cid: CID) -> None:
        height = self._blocks.pop(cid).height
        if self._canonical.get(height) == cid:
            del self._canonical[height]
        else:
            self._forks_dropped += 1
        self._state_snapshots.pop(cid, None)
        for listener in self._forget_listeners:
            listener(cid)

    def _prune(self) -> None:
        horizon = self._blocks[self._head].height - self.prune_depth
        if self.hold is not None:
            horizon = min(horizon, self.hold)
        if horizon <= self._base:
            return
        for height in range(self._base, horizon):
            for cid in self._by_height.pop(height, ()):
                self._forget(cid)
        self._base = horizon
        self._floor = max(self._floor, horizon)

    def adopt(self, header: BlockHeader) -> None:
        """Restart the store at *header*, a block whose post-state the
        caller has verified against a source it trusts.

        Everything held before is dropped: it cannot be connected to the
        new floor, and what lies below a floor is final.  The header is
        the new head and the lowest block held, the one
        :class:`HeaderOnly` a store keeps.
        """
        cid = header.cid
        self._blocks = {cid: HeaderOnly(header)}
        self._state_snapshots = {}
        self._by_height = {header.height: [cid]}
        self._canonical = {header.height: cid}
        self._head = cid
        self._base = header.height
        self._floor = header.height + 1
        self._forks_dropped = 0

    # ------------------------------------------------------------------
    # Post-states (validating off any block above the horizon)
    # ------------------------------------------------------------------
    def put_state(self, cid: CID, state: object) -> None:
        """Store the post-state of block *cid*.

        The store is agnostic to the snapshot representation; the runtime
        passes frozen :class:`~repro.storage.statetree.StateTree` forks, so
        a snapshot costs amortised O(delta x log) and shares structure with
        its neighbours.  The horizon drops a fork's reference; deltas no
        longer reachable from any retained fork are reclaimed (a fork
        merges its delta with the layers of its size class into new
        dicts, never into a layer a retained fork holds).
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
        held = sum(1 for cid in self._blocks if not self.is_canonical(cid))
        return self._forks_dropped + held
