"""The slot-leader engine: one schedule shell, a leader rule per engine.

Time is cut into slots of ``slot_time`` seconds aligned to absolute
simulated time; every slot has exactly one leader that every validator can
compute locally.  The leader proposes a block on its head; everyone else
commits it on receipt once its miner leads the slot it records
(:meth:`SlotLeaderEngine.eligible`) — blocks are self-certifying, no votes
are exchanged.  With honest-majority validators this gives instant
finality and a steady block interval.

A concrete engine is a ``NAME`` and a :meth:`leader_for_slot`; PoA, PoS and
Mir are exactly that (Mir also shortens the slot and filters the mempool).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.chain.block import FullBlock
from repro.consensus.base import ConsensusEngine, Validator


class SlotLeaderEngine(ConsensusEngine):
    """Slot ticker, proposal, self-certifying intake and introspection."""

    #: The ``consensus_data`` key a block carries its slot number under.
    SLOT_KEY = "slot"

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self._stop_ticker = None

    def leader_for_slot(self, slot: int) -> Validator:
        """The validator entitled to propose in *slot* (same on every node)."""
        raise NotImplementedError

    @property
    def slot_time(self) -> float:
        return self.params.block_time

    def _consensus_data(self, slot: int) -> dict:
        return {"engine": self.NAME, self.SLOT_KEY: slot}

    def _message_filter(self, slot: int) -> Optional[Callable[[Any], bool]]:
        """Restrict which pooled messages the leader of *slot* may include."""
        return None

    def start(self) -> None:
        super().start()
        # Align slot ticks to absolute slot boundaries so every validator
        # agrees on the slot schedule without communication.
        offset = self.slot_time - (self.sim.now % self.slot_time)
        self._stop_ticker = self.sim.every(
            self.slot_time,
            self._on_slot,
            start_after=offset,
            label=f"{self.NAME}:{self.node.node_id}",
        )

    def stop(self) -> None:
        super().stop()
        if self._stop_ticker is not None:
            self._stop_ticker()
            self._stop_ticker = None

    def _current_slot(self) -> int:
        return int(round(self.sim.now / self.slot_time))

    def _on_slot(self) -> None:
        if not self.running:
            return
        slot = self._current_slot()
        if self.leader_for_slot(slot).node_id != self.node.node_id:
            return
        if self.node.is_byzantine("withhold_block"):
            return
        head = self.node.head()
        block = self.node.assemble_block(
            height=head.height + 1,
            parent_cid=head.cid,
            consensus_data=self._consensus_data(slot),
            message_filter=self._message_filter(slot),
        )
        self._metric("consensus.*.proposed").inc()
        self._publish_block(block, slot=slot)

    def eligible(self, block: FullBlock) -> bool:
        """The block's miner leads the slot the block records."""
        slot = block.header.consensus_data.get(self.SLOT_KEY)
        return slot is not None and block.header.miner == self.leader_for_slot(slot).address

    def handle(self, kind: str, payload: Any, sender: str) -> None:
        if kind != "block":
            return
        # No running guard: blocks are self-certifying (eligible), and a
        # restarted node listens passively — engine stopped — until its
        # head is fresh.  Dropping deliveries here would mark them
        # gossip-seen yet never applied, wedging the node until the
        # MAX_SYNC_WAIT fallback.
        block: FullBlock = payload
        if self._accept_block(block, sender):
            slot = block.header.consensus_data[self.SLOT_KEY]
            self._trace_round(
                "commit", height=block.height, slot=slot,
                proposer=self.leader_for_slot(slot).node_id,
            )

    def debug_state(self) -> dict:
        """Slot schedule state: the current slot and its expected leader."""
        slot = self._current_slot()
        state = super().debug_state()
        state.update({
            "slot": slot,
            "leader": self.leader_for_slot(slot).node_id,
            "head_height": self.node.head().height,
        })
        return state
