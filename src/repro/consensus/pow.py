"""Simulated proof-of-work longest-chain consensus.

Mining is modelled as an exponential race: a miner with power ``p`` out of
total ``P`` finds its next block after ``Exp(mean = block_time · P / p)``
seconds, restarted whenever its head changes.  This reproduces the
properties the hierarchy layer must cope with on PoW subnets and the
rootnet: probabilistic finality, forks when two miners solve close together
relative to propagation delay, and reorgs resolved by the longest chain.

Finality is depth-based: a block is final once ``finality_depth`` blocks
build on it; the node only acts on final blocks for checkpointing.
"""

from __future__ import annotations

from typing import Any

from repro.chain.block import FullBlock
from repro.consensus.base import ConsensusEngine, register_engine


@register_engine
class ProofOfWorkEngine(ConsensusEngine):
    """Exponential-race PoW with longest-chain fork choice."""

    NAME = "pow"

    def __init__(self, sim, node, validators, params) -> None:
        super().__init__(sim, node, validators, params)
        self._rng = sim.rng("pow", node.subnet_id, node.node_id)
        self._mining_event = None
        self._mining_on = None  # CID of the head we are mining on

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._restart_mining()

    def stop(self) -> None:
        super().stop()
        self._cancel_mining()

    def _cancel_mining(self) -> None:
        if self._mining_event is not None:
            self.sim.cancel(self._mining_event)
            self._mining_event = None
        self._mining_on = None

    def _my_power(self) -> int:
        validator = self.validators.by_node(self.node.node_id)
        return validator.power if validator else 0

    def _restart_mining(self) -> None:
        """(Re)schedule this miner's next solve on the current head."""
        self._cancel_mining()
        if not self.running:
            return
        power = self._my_power()
        if power == 0:
            return  # observer node: syncs but does not mine
        head = self.node.head()
        mean = self.params.block_time * self.validators.total_power / power
        delay = self._rng.expovariate(1.0 / mean)
        self._mining_on = head.cid
        self._mining_event = self.sim.schedule(
            delay, self._on_solved, head.cid, label=f"pow:{self.node.node_id}"
        )

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def _on_solved(self, parent_cid) -> None:
        self._mining_event = None
        if not self.running:
            return
        head = self.node.head()
        if head.cid != parent_cid:
            # Head changed while the solve event was in flight: stale work.
            self._restart_mining()
            return
        if self.node.is_byzantine("withhold_block"):
            self._restart_mining()
            return
        block = self.node.assemble_block(
            height=head.height + 1,
            parent_cid=parent_cid,
            consensus_data={
                "engine": self.NAME,
                "ticket": self._rng.getrandbits(64),
            },
        )
        self._metric("consensus.*.mined").inc()
        self._publish_block(block)
        self._restart_mining()

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------
    def eligible(self, block: FullBlock) -> bool:
        """The block was mined under this engine (it carries the tag)."""
        return block.header.consensus_data.get("engine") == self.NAME

    def handle(self, kind: str, payload: Any, sender: str) -> None:
        if kind != "block":
            return
        # No running guard on acceptance: a restarted node listens
        # passively (engine stopped) until its head is fresh — see
        # SlotLeaderEngine.handle.  Only mining stays gated on running.
        head_before = self.node.head()
        if not self._accept_block(payload, sender):
            return
        head_after = self.node.head()
        if head_after.cid != head_before.cid:
            self._trace_round("commit", height=head_after.height)
            if self.running:
                # Our head moved (extension or reorg): abandon stale work.
                self._restart_mining()

    # ------------------------------------------------------------------
    # Introspection (stall diagnosis)
    # ------------------------------------------------------------------
    def debug_state(self) -> dict:
        """Mining state: the head we race on, our power, final height."""
        head = self.node.head()
        state = super().debug_state()
        state.update({
            "mining_on": (
                self._mining_on.hex()[:16]
                if self._mining_on is not None else None
            ),
            "power": self._my_power(),
            "head_height": head.height,
            "final_height": self.final_height(),
        })
        return state

    # ------------------------------------------------------------------
    # Finality
    # ------------------------------------------------------------------
    def final_height(self) -> int:
        """Highest height considered final (head height − finality depth)."""
        return self.node.head().height - self.params.finality_depth
